import java.io.BufferedReader;
import java.io.ByteArrayInputStream;
import java.io.ByteArrayOutputStream;
import java.io.File;
import java.io.FileDescriptor;
import java.io.FileInputStream;
import java.io.FileOutputStream;
import java.io.IOException;
import java.io.InputStreamReader;
import java.io.OutputStream;
import java.io.PrintStream;
import java.io.PrintWriter;
import java.io.Writer;
import java.lang.invoke.MethodHandle;
import java.lang.invoke.MethodHandles;
import java.lang.reflect.Field;
import java.lang.reflect.Method;
import java.lang.reflect.Modifier;
import java.net.URL;
import java.net.URLClassLoader;
import java.nio.charset.Charset;
import java.nio.charset.StandardCharsets;
import java.nio.file.Files;
import java.nio.file.Path;
import java.util.Arrays;
import java.util.Collections;
import java.util.HashMap;
import java.util.HashSet;
import java.util.IdentityHashMap;
import java.util.List;
import java.util.Locale;
import java.util.Map;
import java.util.Queue;
import java.util.Set;
import java.util.TimeZone;
import java.util.concurrent.ConcurrentHashMap;
import java.util.concurrent.ConcurrentLinkedQueue;
import java.util.function.Supplier;
import javax.tools.Diagnostic;
import javax.tools.DiagnosticListener;
import javax.tools.JavaFileObject;
import javax.tools.StandardJavaFileManager;
import javax.tools.StandardLocation;
import javax.tools.ToolProvider;
import com.sun.tools.javac.api.ClientCodeWrapper.DiagnosticSourceUnwrapper;
import com.sun.tools.javac.api.JavacTaskImpl;
import com.sun.tools.javac.api.JavacTaskPool;
import com.sun.tools.javac.main.JavaCompiler;
import com.sun.tools.javac.util.Context;
import com.sun.tools.javac.util.JCDiagnostic;
import com.sun.tools.javac.util.JavacMessages;
import com.sun.tools.javac.util.Log;
import sun.misc.Unsafe;

/**
 * Resident javac and java: compiles scratch Main.java files and runs the
 * compiled Main classes in this JVM, several at once.
 *
 * Its one channel is a socket, whose fd is its one argument: requests come in
 * and all it writes below goes out on it. Its stdin is empty, as a java Main
 * process's is, and its stdout and stderr go nowhere, so no run reaches the
 * channel through FileDescriptor.in, out or err. Once set up, it writes the
 * line "ready <version>", with this JVM's Runtime.version(); a request's time
 * starts there. Its set-up ends with one compile of a built-in unit (see
 * warmUp). With no argument (an archive dump) it exits once set up.
 * Request: one line "<id> <kind> <dir>", kind "compile" or "run", dir the
 * absolute scratch directory. Each request runs on its own thread. Reply: a
 * header line "<id> <exit> <nbytes> <nerr>", then nbytes of body, of which
 * the first nerr are stderr and the rest stdout; replies come in the order
 * requests finish and never interleave. A compile answers what
 * `javac -encoding UTF-8 Main.java` in dir would: javac's exit code and
 * diagnostics (all stderr), with the class files beside Main.java. It runs
 * in a javac context that earlier compiles used (see Compiler). A run
 * answers what `java Main` in dir would: exit 0, or 1 after an uncaught
 * throwable, and its stderr then its stdout.
 * Exit REFUSED means this JVM cannot vouch for the reply; the body names why.
 * The sender then compiles elsewhere or runs a java Main process, and retires
 * this JVM. A compile is refused when dir holds anything besides Main.java
 * and when javac fails (exit 2 or more: say, a crash). A run is refused when
 * a thread of it outlives main, when it calls System.exit (every request in
 * flight is refused as the JVM ends), when it closes System.in, System.out
 * or System.err, and when the launcher would do something this class does
 * not reproduce. Once the JVM-global state differs from its startup
 * snapshot, this and every later reply is refused.
 * At end of input the JVM exits once the requests in flight have answered.
 * Launched with -XX:+ExitOnOutOfMemoryError, so a run that fills the shared
 * heap ends the JVM before any reply it could spoil.
 * The sender keeps one cache entry per java: this file compiled into
 * CompileServer-<java key>-<content key>.jar, and the class-data-sharing
 * archive of a run on that jar with no argument, named alike with .jsa, whose
 * content key covers this file's bytes. When it has both, it launches this
 * class from the jar on the archive; else this file in source-file mode.
 * Writing an entry deletes its java's others, so two checkouts of different
 * versions on one java rewrite each other's entry once per run.
 */
public class CompileServer {
    static final int REFUSED = -1;
    /** The channel; its fd is set once main has its argument. */
    static final FileDescriptor CHANNEL = new FileDescriptor();
    static final OutputStream REPLIES = new FileOutputStream(CHANNEL);
    static final Set<String> IN_FLIGHT = ConcurrentHashMap.newKeySet();
    /** The current run's output; threads the run starts inherit it. */
    static final InheritableThreadLocal<Output> OUTPUT = new InheritableThreadLocal<>();
    static final Unsafe UNSAFE = theUnsafe();
    /** The application's shutdown hooks: a java Main process runs them at exit, this JVM never does. */
    static final Supplier<Object> HOOKS = hooksReader();
    /** The compilers no compile holds; a compile takes one, or makes one when there is none. */
    static final Queue<Compiler> COMPILERS = new ConcurrentLinkedQueue<>();
    /**
     * A HumanEval-X-shaped cell (~2 KB): a Singleton Solution with a stream, lambdas and a generic
     * nested class, and the Main that tests it. Sized by measurement: a ~0.8 KB unit left the first
     * cells' compiles slower, a ~4 KB one kept the first cells waiting longer for "ready".
     */
    static final String WARM_UP = String.join("\n",
        "import java.util.*;",
        "import java.util.stream.*;",
        "",
        "class Solution {",
        "    private static volatile Solution instance;",
        "",
        "    private Solution() {}",
        "",
        "    public static Solution getInstance() {",
        "        if (instance == null) {",
        "            synchronized (Solution.class) {",
        "                if (instance == null) {",
        "                    instance = new Solution();",
        "                }",
        "            }",
        "        }",
        "        return instance;",
        "    }",
        "",
        "    static final class Pair<A extends Comparable<A>, B> implements Comparable<Pair<A, B>> {",
        "        final A first;",
        "        final B second;",
        "",
        "        Pair(A first, B second) {",
        "            this.first = first;",
        "            this.second = second;",
        "        }",
        "",
        "        @Override",
        "        public int compareTo(Pair<A, B> other) {",
        "            return first.compareTo(other.first);",
        "        }",
        "    }",
        "",
        "    public List<Integer> evens(List<Integer> numbers) {",
        "        return numbers.stream().filter(n -> n % 2 == 0).collect(Collectors.toList());",
        "    }",
        "",
        "    public String joined(List<String> words) {",
        "        StringBuilder builder = new StringBuilder();",
        "        for (String word : words) {",
        "            builder.append(word.toUpperCase()).append(',');",
        "        }",
        "        return builder.toString();",
        "    }",
        "",
        "    public List<Pair<Integer, String>> sortedPairs(Map<Integer, String> map) {",
        "        List<Pair<Integer, String>> pairs = new ArrayList<>();",
        "        for (Map.Entry<Integer, String> entry : map.entrySet()) {",
        "            pairs.add(new Pair<>(entry.getKey(), entry.getValue()));",
        "        }",
        "        Collections.sort(pairs);",
        "        return pairs;",
        "    }",
        "}",
        "",
        "public class Main {",
        "    public static void main(String[] args) {",
        "        Solution s = Solution.getInstance();",
        "        List<Boolean> correct = Arrays.asList(",
        "            s.evens(Arrays.asList(1, 2, 3, 4)).equals(Arrays.asList(2, 4)),",
        "            s.joined(Arrays.asList(\"a\", \"b\")).equals(\"A,B,\"),",
        "            s.sortedPairs(Map.of(2, \"b\", 1, \"a\")).get(0).first == 1",
        "        );",
        "        if (correct.contains(false)) {",
        "            throw new AssertionError();",
        "        }",
        "    }",
        "}",
        "");
    static List<Object> startup;
    static volatile String refusal;

    public static void main(String[] args) throws Exception {
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
        Compiler compiler = new Compiler(); // a javac whose internals it cannot reach ends this JVM here
        warmUp(compiler);
        COMPILERS.add(compiler);
        // after the hook above, which is part of it, and after javac's first compile, as in
        // source-file mode, where the launcher's compile of this file comes first
        startup = globals();
        if (args.length == 0) {
            return;
        }
        // FileDescriptor has no public way to name an fd; UNSAFE sets its field
        UNSAFE.putInt(CHANNEL, UNSAFE.objectFieldOffset(FileDescriptor.class.getDeclaredField("fd")),
            Integer.parseInt(args[0]));
        BufferedReader in = new BufferedReader(
            new InputStreamReader(new FileInputStream(CHANNEL), StandardCharsets.UTF_8));
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
                        compile(id, request[2]);
                    }
                } catch (Throwable e) {
                    refuse(id, "unsupported");
                }
            }).start();
        }
    }

    /**
     * Compiles WARM_UP as dir/Main.java, in a directory of its own under the
     * working directory, then deletes that directory. javac's first compile
     * loads and initialises much of what later ones use, so it is done here,
     * in the context the first cells reuse, rather than on a cell's time.
     * An unwritable working directory skips it.
     */
    static void warmUp(Compiler compiler) {
        File dir = null;
        try {
            dir = Files.createTempDirectory(Path.of("").toAbsolutePath(), "warm-up").toFile();
            File source = new File(dir, "Main.java");
            Files.writeString(source.toPath(), WARM_UP);
            compiler.compile(source, new PrintWriter(Writer.nullWriter()));
        } catch (IOException e) {
            // the first cells warm javac instead
        } finally {
            if (dir != null) {
                for (File file : dir.listFiles()) {
                    file.delete();
                }
                dir.delete();
            }
        }
    }

    /**
     * Compiles dir/Main.java on a free compiler. Refused when dir holds
     * anything else: javac's class path "." would show it, the compiler's
     * empty one does not.
     */
    static void compile(String id, String dir) throws Exception {
        if (!Arrays.equals(new File(dir).list(), new String[] {"Main.java"})) {
            refuse(id, "unsupported");
            return;
        }
        Compiler compiler = COMPILERS.poll();
        if (compiler == null) {
            compiler = new Compiler();
        }
        ByteArrayOutputStream err = new ByteArrayOutputStream();
        int exit = compiler.compile(new File(dir, "Main.java"), new PrintWriter(err, true));
        COMPILERS.add(compiler); // not after a throw: its context may be half-way through a task
        reply(id, exit, err.toByteArray(), err.size());
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
            if (group.activeCount() > 0) {
                refuse(id, "leftover thread");
            } else if (exit[0] == REFUSED || output.closed) {
                refuse(id, "unsupported");
            } else {
                int nerr = output.streams[1].size();
                output.streams[0].writeTo(output.streams[1]); // the body: stderr, then stdout
                reply(id, exit[0], output.streams[1].toByteArray(), nerr);
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
        int end = frames.length - runner.length; // where the run lambda's frame is, if the thread made e
        if (end >= 0 && frames[end].getClassName().equals(runner[0].getClassName())
                && frames[end].getMethodName().equals(runner[0].getMethodName())) {
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

    /** Writes a line, then body, to the sender, if it is still there. */
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
     * Reads the application's shutdown hooks, as java.lang is not open to
     * this class; where this JDK does not allow that, a constant, and hooks
     * go unseen.
     */
    static Supplier<Object> hooksReader() {
        try {
            Class<?> owner = Class.forName("java.lang.ApplicationShutdownHooks");
            Field field = owner.getDeclaredField("hooks");
            Object base = UNSAFE.staticFieldBase(field);
            long offset = UNSAFE.staticFieldOffset(field);
            return () -> {
                synchronized (owner) { // its add and remove hold this lock
                    Map<?, ?> hooks = (Map<?, ?>) UNSAFE.getObject(base, offset);
                    return hooks == null ? null : new HashSet<>(hooks.keySet()); // null once shutdown began
                }
            };
        } catch (ReflectiveOperationException | RuntimeException e) {
            return () -> "unreadable";
        }
    }

    /** sun.misc.Unsafe, which reaches fields of classes whose packages are not open to this one. */
    static Unsafe theUnsafe() {
        try {
            Field field = Unsafe.class.getDeclaredField("theUnsafe");
            field.setAccessible(true);
            return (Unsafe) field.get(null);
        } catch (ReflectiveOperationException e) {
            throw new IllegalStateException(e);
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

    /**
     * One javac context, reused compile after compile (JavacTaskPool, as
     * jshell uses it): its symbol table keeps the JDK classes earlier compiles
     * read and drops the classes they declared; a context in which a compile
     * declared a class of a java.* package is not reused. A reused context
     * writes class files through the file manager of its first task, so each
     * compiler keeps one, whose class path is empty.
     */
    static final class Compiler implements DiagnosticListener<JavaFileObject> {
        /** Where a Log keeps the "not supported" errors it reported, to report each once per file. */
        final long sourceLevelErrors;
        final JavacTaskPool contexts = new JavacTaskPool(1);
        final StandardJavaFileManager files = ToolProvider.getSystemJavaCompiler().getStandardFileManager(null, null, null);
        PrintWriter err;
        Log log;
        Locale locale;

        Compiler() throws IOException, NoSuchFieldException {
            files.setLocation(StandardLocation.CLASS_PATH, List.of());
            sourceLevelErrors = UNSAFE.objectFieldOffset(Log.class.getDeclaredField("recordedSourceLevelErrors"));
        }

        /** javac's exit code; err gets what javac prints, diagnostics and counts. */
        int compile(File source, PrintWriter err) {
            this.err = err;
            List<String> options = List.of("-encoding", "UTF-8");
            return contexts.getTask(err, files, this, options, null, files.getJavaFileObjects(source), task -> {
                Context context = ((JavacTaskImpl) task).getContext();
                log = Log.instance(context);
                locale = JavacMessages.instance(context).getCurrentLocale();
                // a reused Log keeps these from the last compile
                log.nsuppressederrors = log.nsuppressedwarns = 0;
                log.compressedOutput = false;
                ((Set<?>) UNSAFE.getObject(log, sourceLevelErrors)).clear();
                int exit = ((JavacTaskImpl) task).doCall().exitCode;
                if (exit > 1) { // javac could not compile: a crash, or a file it could not read or write
                    throw new IllegalStateException("javac exit " + exit);
                }
                // what javac prints after the diagnostics, unless a listener takes them
                JavaCompiler javac = JavaCompiler.instance(context);
                javac.printCount("error", javac.errorCount());
                javac.printCount("warn", javac.warningCount());
                printSuppressed(javac.errorCount(), log.nsuppressederrors, "count.error.recompile");
                printSuppressed(javac.warningCount(), log.nsuppressedwarns, "count.warn.recompile");
                return exit;
            });
        }

        void printSuppressed(int shown, int suppressed, String key) {
            if (suppressed > 0) {
                log.printLines(Log.WriterKind.ERROR, key, String.valueOf(shown), String.valueOf(shown + suppressed));
            }
        }

        /** Prints a diagnostic as javac's Log does when no listener is set. */
        @Override
        public void report(Diagnostic<? extends JavaFileObject> diagnostic) {
            JCDiagnostic d = ((DiagnosticSourceUnwrapper) diagnostic).d;
            Log.printRawLines(err, log.getDiagnosticFormatter().format(d, locale));
        }
    }

    /** One run's {stdout, stderr}, and whether it closed a standard stream. */
    static final class Output {
        final ByteArrayOutputStream[] streams = {new ByteArrayOutputStream(), new ByteArrayOutputStream()};
        volatile boolean closed;
    }

    /**
     * System.out (0) or System.err (1): every byte it prints reaches write, which puts it in the
     * current run's buffer, or nowhere. It stays open for later runs: close() only refuses the run.
     */
    static final class Stdio extends PrintStream {
        final int stream;

        Stdio(int stream, String name) {
            super(OutputStream.nullOutputStream(), true, launcherCharset(name));
            this.stream = stream;
        }

        @Override
        public void write(int b) {
            write(new byte[] {(byte) b}, 0, 1);
        }

        @Override
        public void write(byte[] b, int off, int len) {
            Output output = OUTPUT.get();
            if (output != null) {
                output.streams[stream].write(b, off, len);
            }
        }

        @Override
        public void close() {
            closed();
        }
    }
}
