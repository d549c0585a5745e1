import com.sun.source.tree.AnnotatedTypeTree;
import com.sun.source.tree.ArrayTypeTree;
import com.sun.source.tree.ClassTree;
import com.sun.source.tree.CompilationUnitTree;
import com.sun.source.tree.MemberSelectTree;
import com.sun.source.tree.MethodTree;
import com.sun.source.tree.ModifiersTree;
import com.sun.source.tree.ParameterizedTypeTree;
import com.sun.source.tree.Tree;
import com.sun.source.tree.VariableTree;
import com.sun.source.util.JavacTask;
import java.io.DataInputStream;
import java.io.EOFException;
import java.io.IOException;
import java.io.Writer;
import java.net.URI;
import java.nio.charset.StandardCharsets;
import java.util.List;
import java.util.Set;
import java.util.StringJoiner;
import javax.tools.Diagnostic;
import javax.tools.JavaCompiler;
import javax.tools.JavaFileObject;
import javax.tools.SimpleJavaFileObject;
import javax.tools.StandardJavaFileManager;
import javax.tools.ToolProvider;

/**
 * javac's digest of Java sources, the reference for the structural checker's
 * differential tests (test_source_model_differential.py).
 *
 * Run in source-file mode as `java tests/JavacTreeOracle.java <modifier>...`,
 * naming the modifiers to report. Each source comes on stdin as a 4-byte
 * big-endian length and that many bytes of UTF-8; end of input ends the
 * program. Each gets one ASCII line on stdout: `null` if javac reports an
 * error while parsing it, else a JSON list with one `[name, members]` entry
 * per top-level `class`. A member is `[kind, name, type, [modifiers]]`:
 * kind is constructor, field or method, a constructor's type is "", and a
 * type keeps only its last simple name and its array dimensions, as
 * source_model._simple_type reduces it. Nested types and initializer blocks
 * are not members. It only parses, through the exported com.sun.source API.
 */
public class JavacTreeOracle {
    public static void main(String[] args) throws IOException {
        Set<String> tracked = Set.of(args);
        JavaCompiler javac = ToolProvider.getSystemJavaCompiler();
        StandardJavaFileManager files = javac.getStandardFileManager(null, null, null);
        DataInputStream in = new DataInputStream(System.in);
        while (true) {
            byte[] source;
            try {
                source = in.readNBytes(in.readInt());
            } catch (EOFException end) {
                return;
            }
            System.out.println(digest(javac, files, new String(source, StandardCharsets.UTF_8), tracked));
            System.out.flush();
        }
    }

    static String digest(JavaCompiler javac, StandardJavaFileManager files, String text, Set<String> tracked)
            throws IOException {
        JavaFileObject unit = new SimpleJavaFileObject(URI.create("string:///Unit.java"), JavaFileObject.Kind.SOURCE) {
            @Override
            public CharSequence getCharContent(boolean ignoreEncodingErrors) {
                return text;
            }
        };
        boolean[] failed = {false};
        JavacTask task = (JavacTask) javac.getTask(Writer.nullWriter(), files,
                diagnostic -> failed[0] |= diagnostic.getKind() == Diagnostic.Kind.ERROR, null, null, List.of(unit));
        Iterable<? extends CompilationUnitTree> trees = task.parse();
        if (failed[0]) {
            return "null"; // the trees of a unit with errors may lack parts, such as a field's type
        }
        StringJoiner classes = new StringJoiner(",", "[", "]");
        for (CompilationUnitTree tree : trees) {
            for (Tree type : tree.getTypeDecls()) {
                if (type.getKind() == Tree.Kind.CLASS) {
                    classes.add(classDigest((ClassTree) type, tracked));
                }
            }
        }
        return classes.toString();
    }

    static String classDigest(ClassTree type, Set<String> tracked) {
        StringJoiner members = new StringJoiner(",", "[", "]");
        for (Tree member : type.getMembers()) {
            if (member instanceof MethodTree method) {
                boolean constructor = method.getName().contentEquals("<init>");
                members.add(member(constructor ? "constructor" : "method",
                        constructor ? type.getSimpleName() : method.getName(),
                        constructor ? "" : simpleType(method.getReturnType()), method.getModifiers(), tracked));
            } else if (member instanceof VariableTree field) {
                members.add(member("field", field.getName(), simpleType(field.getType()), field.getModifiers(), tracked));
            }
        }
        return "[" + quote(type.getSimpleName()) + "," + members + "]";
    }

    static String member(String kind, CharSequence name, String type, ModifiersTree modifiers, Set<String> tracked) {
        StringJoiner flags = new StringJoiner(",", "[", "]");
        modifiers.getFlags().stream().map(Object::toString).filter(tracked::contains).map(JavacTreeOracle::quote)
                .forEach(flags::add);
        return "[" + quote(kind) + "," + quote(name) + "," + quote(type) + "," + flags + "]";
    }

    /** A type's last simple name, its type arguments and annotations dropped, with a `[]` per dimension. */
    static String simpleType(Tree type) {
        if (type instanceof ArrayTypeTree array) {
            return simpleType(array.getType()) + "[]";
        }
        if (type instanceof ParameterizedTypeTree generic) {
            return simpleType(generic.getType());
        }
        if (type instanceof AnnotatedTypeTree annotated) {
            return simpleType(annotated.getUnderlyingType());
        }
        if (type instanceof MemberSelectTree qualified) {
            return qualified.getIdentifier().toString();
        }
        return type.toString(); // a primitive type, void, or a simple name
    }

    /** A JSON string of pure ASCII. */
    static String quote(CharSequence text) {
        StringBuilder json = new StringBuilder("\"");
        text.chars().forEach(c -> json.append(c == '"' || c == '\\' ? "\\" + (char) c
                : c < 0x20 || c > 0x7e ? String.format("\\u%04x", c) : String.valueOf((char) c)));
        return json.append('"').toString();
    }
}
