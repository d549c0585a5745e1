import java.io.BufferedReader;
import java.io.ByteArrayOutputStream;
import java.io.File;
import java.io.IOException;
import java.io.InputStreamReader;
import java.io.OutputStream;
import java.io.UncheckedIOException;
import java.nio.charset.StandardCharsets;
import javax.tools.JavaCompiler;
import javax.tools.ToolProvider;

/**
 * Resident javac: compiles scratch Main.java files in this JVM, several at
 * once.
 *
 * Request: one line "<id> <dir>", dir the absolute scratch directory. Each
 * request compiles on its own thread. Reply: a header line
 * "<id> <exit> <nbytes>", then nbytes of diagnostics; replies come in the
 * order compiles finish and never interleave. At end of input the JVM exits
 * once the compiles in flight have answered.
 * Launched in source-file mode: java CompileServer.java
 */
public class CompileServer {
    public static void main(String[] args) throws IOException {
        JavaCompiler javac = ToolProvider.getSystemJavaCompiler();
        BufferedReader in = new BufferedReader(new InputStreamReader(System.in, StandardCharsets.UTF_8));
        OutputStream out = System.out;
        for (String line; (line = in.readLine()) != null; ) {
            int space = line.indexOf(' ');
            String id = line.substring(0, space);
            String dir = line.substring(space + 1);
            new Thread(() -> {
                ByteArrayOutputStream err = new ByteArrayOutputStream();
                int exit = javac.run(null, null, err, "-d", dir, "-cp", dir, dir + File.separator + "Main.java");
                byte[] header = (id + " " + exit + " " + err.size() + "\n").getBytes(StandardCharsets.US_ASCII);
                synchronized (out) {
                    try {
                        out.write(header);
                        err.writeTo(out);
                        out.flush();
                    } catch (IOException e) {
                        throw new UncheckedIOException(e);
                    }
                }
            }).start();
        }
    }
}
