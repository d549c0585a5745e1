import java.io.BufferedReader;
import java.io.ByteArrayOutputStream;
import java.io.File;
import java.io.IOException;
import java.io.InputStreamReader;
import java.io.OutputStream;
import java.nio.charset.StandardCharsets;
import javax.tools.JavaCompiler;
import javax.tools.ToolProvider;

/**
 * Resident javac: compiles one scratch Main.java per request in this JVM.
 *
 * Request: one line, the absolute scratch directory. Reply: a header line
 * "<exit> <nbytes>", then nbytes of diagnostics. Exits at end of input.
 * Launched in source-file mode: java CompileServer.java
 */
public class CompileServer {
    public static void main(String[] args) throws IOException {
        JavaCompiler javac = ToolProvider.getSystemJavaCompiler();
        BufferedReader in = new BufferedReader(new InputStreamReader(System.in, StandardCharsets.UTF_8));
        OutputStream out = System.out;
        for (String dir; (dir = in.readLine()) != null; ) {
            ByteArrayOutputStream err = new ByteArrayOutputStream();
            int exit = javac.run(null, null, err, "-d", dir, "-cp", dir, dir + File.separator + "Main.java");
            out.write((exit + " " + err.size() + "\n").getBytes(StandardCharsets.US_ASCII));
            err.writeTo(out);
            out.flush();
        }
    }
}
