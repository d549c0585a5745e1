import java.io.BufferedReader;
import java.io.ByteArrayInputStream;
import java.io.ByteArrayOutputStream;
import java.io.File;
import java.io.FileDescriptor;
import java.io.FileOutputStream;
import java.io.IOException;
import java.io.InputStreamReader;
import java.io.OutputStream;
import java.io.PrintStream;
import java.lang.invoke.MethodHandle;
import java.lang.invoke.MethodHandles;
import java.lang.reflect.Field;
import java.lang.reflect.Method;
import java.lang.reflect.Modifier;
import java.net.URL;
import java.net.URLClassLoader;
import java.nio.charset.Charset;
import java.nio.charset.StandardCharsets;
import java.util.Arrays;
import java.util.Collections;
import java.util.HashMap;
import java.util.HashSet;
import java.util.IdentityHashMap;
import java.util.List;
import java.util.Locale;
import java.util.Map;
import java.util.Set;
import java.util.TimeZone;
import java.util.concurrent.ConcurrentHashMap;
import java.util.function.Supplier;
import javax.tools.JavaCompiler;
import javax.tools.ToolProvider;
import sun.misc.Unsafe;

/**
 * Resident javac and java: compiles scratch Main.java files and runs the
 * compiled Main classes in this JVM, several at once.
 *
 * Its one channel is its stdin, a socket: requests come in and all it writes
 * below goes out on it. Its stdout and stderr, which runs can reach, go nowhere.
 * Once set up, it writes the line "ready <version>", with this JVM's
 * Runtime.version(); a request's time starts there.
 * Request: one line "<id> <kind> <dir>", kind "compile" or "run", dir the
 * absolute scratch directory. Each request runs on its own thread. Reply: a
 * header line "<id> <exit> <nbytes> <nerr>", then nbytes of body, of which
 * the first nerr are stderr and the rest stdout; replies come in the order
 * requests finish and never interleave. A compile reads Main.java as UTF-8
 * and answers javac's exit code and diagnostics (all stderr). A run answers
 * what `java Main` in dir would: exit 0, or 1 after an uncaught throwable,
 * and its stderr then its stdout.
 * Exit REFUSED means this JVM cannot vouch for the reply; the body names why.
 * The sender then compiles elsewhere or runs a java Main process, and retires
 * this JVM. A run is refused when a thread of it outlives main, when it
 * calls System.exit (every request in flight is refused as the JVM ends),
 * when it closes System.in, System.out or System.err, and when the launcher
 * would do something this class does not reproduce. Once the JVM-global
 * state differs from its startup snapshot, this and every later reply is
 * refused.
 * At end of input the JVM exits once the requests in flight have answered.
 * Launched in source-file mode with -XX:+ExitOnOutOfMemoryError, so a run
 * that fills the shared heap ends the JVM before any reply it could spoil.
 */
public class CompileServer {
    static final int REFUSED = -1;
    static final OutputStream REPLIES = new FileOutputStream(FileDescriptor.in);
    static final Set<String> IN_FLIGHT = ConcurrentHashMap.newKeySet();
    /** The current run's output; threads the run starts inherit it. */
    static final InheritableThreadLocal<Output> OUTPUT = new InheritableThreadLocal<>();
    /** The application's shutdown hooks: a java Main process runs them at exit, this JVM never does. */
    static final Supplier<Object> HOOKS = hooksReader();
    static List<Object> startup;
    static volatile String refusal;

    public static void main(String[] args) throws IOException {
        JavaCompiler javac = ToolProvider.getSystemJavaCompiler();
        BufferedReader in = new BufferedReader(new InputStreamReader(System.in, StandardCharsets.UTF_8));
        System.setIn(new ByteArrayInputStream(new byte[0]) {
            @Override
            public void close() {
                closed();
            }
        });
        System.setOut(new Stdio(0, "stdout"));
        System.setErr(new Stdio(1, "stderr"));
        Runtime.getRuntime().addShutdownHook(new Thread(() -> {
            refusal = "exit"; // from here on every reply is this refusal
            IN_FLIGHT.forEach(id -> refuse(id, refusal));
        }));
        startup = globals(); // after the hook above, which is part of it
        send("ready " + Runtime.version(), new byte[0]);
        for (String line; (line = in.readLine()) != null; ) {
            String[] request = line.split(" ", 3);
            String id = request[0];
            IN_FLIGHT.add(id);
            new Thread(() -> {
                try {
                    if (request[1].equals("run")) {
                        run(id, request[2]);
                    } else {
                        ByteArrayOutputStream err = new ByteArrayOutputStream();
                        String dir = request[2];
                        int exit = javac.run(null, null, err, "-encoding", "UTF-8", "-d", dir, "-cp", dir,
                                dir + File.separator + "Main.java");
                        reply(id, exit, err.toByteArray(), err.size());
                    }
                } catch (Throwable e) {
                    refuse(id, "unsupported");
                }
            }).start();
        }
    }

    /** Runs dir/Main as the java launcher would, on a thread named main. */
    static void run(String id, String dir) throws Exception {
        Output output = new Output();
        URL[] classpath = {new File(dir).toURI().toURL()};
        try (URLClassLoader loader = new URLClassLoader(classpath, ClassLoader.getPlatformClassLoader())) {
            // not initialised here: <clinit> runs inside main's invocation, as under the launcher
            Class<?> main = Class.forName("Main", false, loader);
            Method method = main.getMethod("main", String[].class);
            if (method.getDeclaringClass() != main || !Modifier.isStatic(method.getModifiers())
                    || method.getReturnType() != void.class) {
                refuse(id, "unsupported");
                return;
            }
            method.setAccessible(true); // Main need not be public
            MethodHandle handle = MethodHandles.lookup().unreflect(method); // its frames stay hidden
            int[] exit = {0};
            ThreadGroup group = new ThreadGroup("main");
            Thread thread = new Thread(group, () -> {
                OUTPUT.set(output);
                StackTraceElement[] runner = new Throwable().getStackTrace();
                try {
                    handle.invokeExact(new String[0]);
                } catch (Throwable e) {
                    exit[0] = 1;
                    trim(e, runner, Collections.newSetFromMap(new IdentityHashMap<>()));
                    Thread self = Thread.currentThread();
                    try {
                        self.getUncaughtExceptionHandler().uncaughtException(self, e);
                    } catch (Throwable f) {
                        exit[0] = REFUSED; // the launcher reports this in its own words
                    }
                }
            }, "main");
            thread.setContextClassLoader(loader);
            thread.start();
            thread.join();
            byte[] err = output.streams[1].toByteArray(), out = output.streams[0].toByteArray();
            if (group.activeCount() > 0) {
                refuse(id, "leftover thread");
            } else if (exit[0] == REFUSED || output.closed) {
                refuse(id, "unsupported");
            } else {
                byte[] body = Arrays.copyOf(err, err.length + out.length);
                System.arraycopy(out, 0, body, err.length, out.length);
                reply(id, exit[0], body, err.length);
            }
        }
    }

    /**
     * Drops the frames below main from every throwable main's thread made:
     * the runner's own, and the JDK frames that initialised Main for the
     * method handle. The launcher calls main with no Java frame below it.
     */
    static void trim(Throwable e, StackTraceElement[] runner, Set<Throwable> seen) {
        if (e == null || !seen.add(e)) {
            return;
        }
        StackTraceElement[] frames = e.getStackTrace();
        int end = frames.length - runner.length;
        if (end >= 0 && sameMethods(frames, end, runner)) {
            while (end > 0 && frames[end - 1].getModuleName() != null) {
                end--;
            }
            e.setStackTrace(Arrays.copyOf(frames, end));
        }
        trim(e.getCause(), runner, seen);
        for (Throwable suppressed : e.getSuppressed()) {
            trim(suppressed, runner, seen);
        }
    }

    static boolean sameMethods(StackTraceElement[] frames, int from, StackTraceElement[] runner) {
        for (int i = 0; i < runner.length; i++) {
            StackTraceElement frame = frames[from + i];
            if (!frame.getClassName().equals(runner[i].getClassName())
                    || !frame.getMethodName().equals(runner[i].getMethodName())) {
                return false;
            }
        }
        return true;
    }

    static void refuse(String id, String reason) {
        byte[] body = reason.getBytes(StandardCharsets.US_ASCII);
        reply(id, REFUSED, body, body.length);
    }

    /** Writes a reply whose body is nerr bytes of stderr, then stdout. */
    static void reply(String id, int exit, byte[] body, int nerr) {
        synchronized (REPLIES) {
            if (refusal == null && !globals().equals(startup)) {
                refusal = "global state";
            }
            if (refusal != null) {
                exit = REFUSED;
                body = refusal.getBytes(StandardCharsets.US_ASCII);
                nerr = body.length;
            }
            if (IN_FLIGHT.remove(id)) {
                send(id + " " + exit + " " + body.length + " " + nerr, body);
            }
        }
    }

    /** Writes a line, then body, to the sender, if any: an archive dump's stdin may be unwritable. */
    static void send(String line, byte[] body) {
        try {
            REPLIES.write((line + "\n").getBytes(StandardCharsets.US_ASCII));
            REPLIES.write(body);
            REPLIES.flush();
        } catch (IOException e) {
            // nobody waits for this line: the sender has gone, or never listened
        }
    }

    /** The JVM-wide state a run could change and a later run would see. */
    static List<Object> globals() {
        TimeZone zone = TimeZone.getDefault(); // first: the first call sets user.timezone
        return Arrays.asList(
            Locale.getDefault(), Locale.getDefault(Locale.Category.DISPLAY),
            Locale.getDefault(Locale.Category.FORMAT), zone, new HashMap<>(System.getProperties()),
            Thread.getDefaultUncaughtExceptionHandler(), System.in, System.out, System.err, HOOKS.get());
    }

    /**
     * Reads the application's shutdown hooks through sun.misc.Unsafe, as
     * java.lang is not open to this class; where this JDK does not allow
     * that, a constant, and hooks go unseen.
     */
    static Supplier<Object> hooksReader() {
        try {
            Field theUnsafe = Unsafe.class.getDeclaredField("theUnsafe");
            theUnsafe.setAccessible(true);
            Unsafe unsafe = (Unsafe) theUnsafe.get(null);
            Class<?> owner = Class.forName("java.lang.ApplicationShutdownHooks");
            Field field = owner.getDeclaredField("hooks");
            Object base = unsafe.staticFieldBase(field);
            long offset = unsafe.staticFieldOffset(field);
            return () -> {
                synchronized (owner) { // its add and remove hold this lock
                    Map<?, ?> hooks = (Map<?, ?>) unsafe.getObject(base, offset);
                    return hooks == null ? null : new HashSet<>(hooks.keySet()); // null once shutdown began
                }
            };
        } catch (ReflectiveOperationException | RuntimeException e) {
            return () -> "unreadable";
        }
    }

    /** A standard stream was closed: the current run is refused, as java Main drops what follows. */
    static void closed() {
        Output output = OUTPUT.get();
        if (output != null) {
            output.closed = true;
        }
    }

    /** The charset the launcher gives System.out or System.err on a pipe. */
    static Charset launcherCharset(String stream) {
        String name = System.getProperty(stream + ".encoding", System.getProperty("sun." + stream + ".encoding"));
        return name == null ? Charset.defaultCharset() : Charset.forName(name);
    }

    /** One run's {stdout, stderr}, and whether it closed a standard stream. */
    static final class Output {
        final ByteArrayOutputStream[] streams = {new ByteArrayOutputStream(), new ByteArrayOutputStream()};
        volatile boolean closed;
    }

    /** System.out or System.err. It stays open for later runs: close() only flushes and refuses the run. */
    static final class Stdio extends PrintStream {
        Stdio(int stream, String name) {
            super(new Redirect(stream), true, launcherCharset(name));
        }

        @Override
        public void close() {
            flush();
            closed();
        }
    }

    /** System.out (0) or System.err (1): writes to the current run's buffer, or nowhere. */
    static final class Redirect extends OutputStream {
        final int stream;

        Redirect(int stream) {
            this.stream = stream;
        }

        @Override
        public void write(int b) {
            Output output = OUTPUT.get();
            if (output != null) {
                output.streams[stream].write(b);
            }
        }

        @Override
        public void write(byte[] b, int off, int len) {
            Output output = OUTPUT.get();
            if (output != null) {
                output.streams[stream].write(b, off, len);
            }
        }
    }
}
