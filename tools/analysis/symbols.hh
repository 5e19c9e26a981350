/**
 * @file
 * Cross-TU symbol index: the whole tree's namespaces, classes, free
 * functions and out-of-line method definitions, resolved into one
 * queryable database.
 *
 * This is the semantic layer between the shared lexer (lexer.hh /
 * token_stream.hh) and the passes that reason about *behaviour* rather
 * than text. Its consumer is the call graph (call_graph.hh), which
 * needs member/parameter/local *types* to resolve `recv.method()` call
 * sites, overload sets keyed by arity, and declaration-vs-definition
 * knowledge so a call into a bodiless method (pure virtual, external)
 * is honestly accounted as unresolved instead of silently dropped.
 *
 * What the index records, tree-wide:
 *
 *   - every class/struct definition (including nested ones): member
 *     variables with their base type and — for templated containers —
 *     the first template-argument type (`std::vector<Cgroup>` records
 *     base "vector", element "Cgroup"); methods with body tokens,
 *     declared arity, and the file/line they are defined in; method
 *     declarations without a body in the tree (kept separate, so the
 *     call graph can tell "resolved" from "declared but invisible");
 *   - out-of-line definitions `Type Class::method(...)` matched back
 *     to their class (the declaration/definition join);
 *   - free function definitions with enclosing namespace, parameters
 *     and arity, indexed by name (overload sets: all definitions of a
 *     name, narrowed by argument count at resolution time);
 *   - `using X = ...;` type aliases, so `Tick(0)`-style cast syntax is
 *     not mistaken for an unresolvable call.
 *
 * Parsing is token-pattern based (no preprocessor, no templates
 * instantiated); every heuristic here errs toward *recording less and
 * counting the gap* — the honest-conservatism contract the hotpath
 * pass documents in DESIGN.md §12.
 */

#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/model.hh"

namespace hopp::analysis
{

/** One method body (inline or out-of-line) of a class. */
struct MethodInfo
{
    std::string name;
    std::vector<CodeToken> body; //!< tokens between the braces
    int line = 0;
    int arity = 0;               //!< declared parameter count
    std::string file;            //!< tree-relative defining file
    /// (name, base type) per parameter, in declaration order.
    std::vector<std::pair<std::string, std::string>> params;
};

/** One class/struct definition aggregated across the tree. */
struct ClassInfo
{
    std::string name;
    std::set<std::string> members;
    /// member -> declared base type ("Llc", "vector", "Tracer"...).
    std::map<std::string, std::string> memberTypes;
    /// member -> first template-argument type for templated members.
    std::map<std::string, std::string> memberElemTypes;
    std::vector<MethodInfo> methods;
    /// methods declared in the class body with no definition anywhere
    /// in the tree (pure virtual, or defined outside the analyzed
    /// roots) — calls to these are *unresolved*, never guessed at.
    std::set<std::string> methodDecls;

    bool
    hasMethodBody(const std::string &method) const
    {
        for (const auto &m : methods)
            if (m.name == method)
                return true;
        return false;
    }
};

using ClassDb = std::map<std::string, ClassInfo>;

namespace symbol_detail
{

inline bool
isIdent(const CodeToken &t)
{
    return t.kind == TokKind::Ident;
}

inline bool
isKeywordCall(const std::string &s)
{
    return s == "if" || s == "for" || s == "while" || s == "switch" ||
           s == "return" || s == "sizeof" || s == "catch" ||
           s == "alignof" || s == "decltype" || s == "static_assert";
}

/**
 * From an opening paren of a parameter/argument list, the index one
 * past the matching close; `out_close` receives the close index.
 */
inline bool
parenSpan(const std::vector<CodeToken> &code, std::size_t open,
          std::size_t &out_close)
{
    std::size_t close = matchForward(code, open);
    if (close >= code.size())
        return false;
    out_close = close;
    return true;
}

/**
 * Walk the tokens after a parameter list's `)` looking for a function
 * body. Accepts cv/ref qualifiers, noexcept(...), override/final,
 * trailing return types, and constructor initializer lists. Returns
 * the index of the body '{', or npos when the construct is a
 * declaration / expression instead.
 */
inline std::size_t
findBodyBrace(const std::vector<CodeToken> &code, std::size_t after_close)
{
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    bool in_init_list = false;
    for (std::size_t i = after_close; i < code.size(); ++i) {
        const CodeToken &t = code[i];
        if (t.text == "{")
            return i;
        if (t.text == ";")
            return npos;
        if (t.text == "(") {
            // noexcept(...) or an initializer-list member init.
            std::size_t close;
            if (!parenSpan(code, i, close))
                return npos;
            i = close;
            continue;
        }
        if (t.text == ":") {
            // Either `::` (trailing return type) or a ctor init list.
            if (i + 1 < code.size() && code[i + 1].text == ":") {
                ++i;
                continue;
            }
            in_init_list = true;
            continue;
        }
        if (isIdent(t) || t.text == "&" || t.text == "-" ||
            t.text == ">" || t.text == "<" || t.text == "*" ||
            t.text == "," || in_init_list)
            continue;
        if (t.text == "=")
            return npos; // = default / = delete / = 0
        return npos;
    }
    return npos;
}

/** Slice [begin, end) of a code-token vector. */
inline std::vector<CodeToken>
slice(const std::vector<CodeToken> &code, std::size_t begin,
      std::size_t end)
{
    return {code.begin() + static_cast<std::ptrdiff_t>(begin),
            code.begin() + static_cast<std::ptrdiff_t>(end)};
}

/** Split a token range into top-level comma-separated chunks. */
inline std::vector<std::vector<CodeToken>>
splitTopLevel(const std::vector<CodeToken> &code, std::size_t begin,
              std::size_t end)
{
    std::vector<std::vector<CodeToken>> out(1);
    int paren = 0, brace = 0, bracket = 0, angle = 0;
    for (std::size_t i = begin; i < end; ++i) {
        const std::string &t = code[i].text;
        if (t == "(")
            ++paren;
        else if (t == ")")
            --paren;
        else if (t == "{")
            ++brace;
        else if (t == "}")
            --brace;
        else if (t == "[")
            ++bracket;
        else if (t == "]")
            --bracket;
        else if (t == "<")
            ++angle;
        else if (t == ">" && angle > 0)
            --angle;
        if (t == "," && paren == 0 && brace == 0 && bracket == 0 &&
            angle == 0) {
            out.emplace_back();
            continue;
        }
        out.back().push_back(code[i]);
    }
    return out;
}

/** Number of parameters/arguments inside a `(`...`)` span. */
inline int
countArgs(const std::vector<CodeToken> &code, std::size_t open,
          std::size_t close)
{
    auto chunks = splitTopLevel(code, open + 1, close);
    if (chunks.size() == 1 && chunks[0].empty())
        return 0;
    return static_cast<int>(chunks.size());
}

/** Identifiers that are cv/storage noise, never a type name. */
inline bool
isDeclNoise(const std::string &s)
{
    return s == "const" || s == "volatile" || s == "static" ||
           s == "mutable" || s == "constexpr" || s == "inline" ||
           s == "typename" || s == "struct" || s == "class" ||
           s == "explicit" || s == "virtual";
}

/**
 * Declared type of the declarator ending just before `declarator`,
 * scanning backwards no further than `stmt_begin`. Returns the base
 * type identifier ("Llc", "vector", "uint64_t", ...) and fills
 * `out_elem` with the first template-argument type when the base is
 * templated ("" otherwise). Returns "" when no type is recognizable.
 */
inline std::string
declBaseType(const std::vector<CodeToken> &code, std::size_t stmt_begin,
             std::size_t declarator, std::string &out_elem)
{
    out_elem.clear();
    std::size_t k = declarator;
    while (k > stmt_begin) {
        const CodeToken &t = code[k - 1];
        if (t.text == "&" || t.text == "*" ||
            (isIdent(t) && isDeclNoise(t.text))) {
            --k;
            continue;
        }
        break;
    }
    if (k == stmt_begin)
        return "";
    const CodeToken &t = code[k - 1];
    if (isIdent(t))
        return t.text;
    if (t.text == ">") {
        // Templated type: find the matching '<' backwards, take the
        // ident before it as the base and the first ident inside the
        // angle brackets (skipping std:: and noise) as the element.
        int depth = 0;
        std::size_t j = k - 1;
        for (;; --j) {
            if (code[j].text == ">")
                ++depth;
            else if (code[j].text == "<" && --depth == 0)
                break;
            if (j == stmt_begin)
                return "";
        }
        if (j == stmt_begin || !isIdent(code[j - 1]))
            return "";
        for (std::size_t e = j + 1; e + 1 < k; ++e) {
            if (isIdent(code[e]) && !isDeclNoise(code[e].text) &&
                code[e].text != "std" &&
                (e + 1 >= k - 1 || code[e + 1].text != ":")) {
                out_elem = code[e].text;
                break;
            }
        }
        return code[j - 1].text;
    }
    return "";
}

/**
 * Parameter list of a function: (name, base type) per declared
 * parameter, in order. Unrecognizable chunks contribute ("", "") so
 * the arity still counts them.
 */
inline std::vector<std::pair<std::string, std::string>>
parseParams(const std::vector<CodeToken> &code, std::size_t open,
            std::size_t close)
{
    std::vector<std::pair<std::string, std::string>> params;
    if (close <= open + 1)
        return params;
    for (const auto &chunk : splitTopLevel(code, open + 1, close)) {
        if (chunk.empty())
            continue;
        std::size_t n = chunk.size();
        // Default argument: the declarator sits before the '='.
        std::size_t end = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (chunk[i].text == "=") {
                end = i;
                break;
            }
        }
        if (end == 0)
            continue;
        if (!isIdent(chunk[end - 1])) {
            params.emplace_back("", "");
            continue;
        }
        std::string elem;
        std::string base = declBaseType(chunk, 0, end - 1, elem);
        if (base.empty()) {
            // Unnamed parameter: the trailing ident was the type.
            params.emplace_back("", chunk[end - 1].text);
            continue;
        }
        params.emplace_back(chunk[end - 1].text, base);
    }
    return params;
}

/**
 * Name of an operator function whose `operator` keyword sits at `i`,
 * and the index of its parameter-list '('. Handles `operator()`,
 * symbol operators (`operator<`, `operator+=`, `operator[]`), and
 * conversion operators (`operator bool`). Returns "" when the shape is
 * not recognizable (the caller then skips one token).
 */
inline std::string
operatorName(const std::vector<CodeToken> &code, std::size_t i,
             std::size_t &out_open)
{
    std::string name = "operator";
    std::size_t j = i + 1;
    // operator() : the first '(' pair is part of the name.
    if (j < code.size() && code[j].text == "(") {
        std::size_t close = matchForward(code, j);
        if (close == j + 1 && close + 1 < code.size() &&
            code[close + 1].text == "(") {
            out_open = close + 1;
            return "operator()";
        }
        out_open = j;
        return ""; // `operator (` with args: not a definition shape
    }
    for (; j < code.size() && j < i + 5; ++j) {
        if (code[j].text == "(") {
            out_open = j;
            return name.size() > 8 ? name : "";
        }
        if (code[j].kind == TokKind::Punct || isIdent(code[j])) {
            name += code[j].text;
            continue;
        }
        return "";
    }
    return "";
}

inline void
parseClassBody(const std::vector<CodeToken> &code, std::size_t begin,
               std::size_t end, ClassInfo &info, ClassDb &db,
               const std::string &file);

inline std::size_t
end_scan(const std::vector<CodeToken> &code, std::size_t from)
{
    // Bound the class-head scan (base-clause lists are finite; the
    // rejection tokens end real statements long before this).
    return from + 96 < code.size() ? from + 96 : code.size();
}

/**
 * Try to parse a class/struct definition whose `class`/`struct`
 * keyword sits at `i`. Returns one past the definition on success.
 */
inline std::size_t
parseClassDef(const std::vector<CodeToken> &code, std::size_t i,
              ClassDb &db, const std::string &file)
{
    // `class X ... {` with nothing statement-like in between; `enum
    // class` and template parameter lists are rejected by the callers
    // and the scan below.
    if (i + 1 >= code.size() || !isIdent(code[i + 1]))
        return i + 1;
    const std::string &name = code[i + 1].text;
    for (std::size_t j = i + 2; j < end_scan(code, i); ++j) {
        const std::string &t = code[j].text;
        if (t == "{") {
            std::size_t close = matchForward(code, j);
            if (close >= code.size())
                return code.size();
            ClassInfo &info = db[name];
            info.name = name;
            parseClassBody(code, j + 1, close, info, db, file);
            return close + 1;
        }
        if (t == ";" || t == "(" || t == ")" || t == "=" || t == ">")
            return j; // forward decl / template param / other
        // base clause idents, ':', '<...>', commas all acceptable
    }
    return i + 1;
}

inline void
parseClassBody(const std::vector<CodeToken> &code, std::size_t begin,
               std::size_t end, ClassInfo &info, ClassDb &db,
               const std::string &file)
{
    std::size_t i = begin;
    while (i < end) {
        const CodeToken &t = code[i];

        // Access specifiers.
        if (isIdent(t) &&
            (t.text == "public" || t.text == "private" ||
             t.text == "protected") &&
            i + 1 < end && code[i + 1].text == ":" &&
            (i + 2 >= end || code[i + 2].text != ":")) {
            i += 2;
            continue;
        }

        // Nested class / struct definitions become their own entries.
        if (isIdent(t) && (t.text == "class" || t.text == "struct") &&
            (i == begin || code[i - 1].text != "enum")) {
            std::size_t next = parseClassDef(code, i, db, file);
            if (next > i) {
                i = next;
                continue;
            }
        }

        // Skip enums, friends, usings, templates wholesale.
        if (isIdent(t) && t.text == "enum") {
            while (i < end && code[i].text != "{" && code[i].text != ";")
                ++i;
            if (i < end && code[i].text == "{")
                i = matchForward(code, i) + 1;
            continue;
        }
        if (isIdent(t) &&
            (t.text == "friend" || t.text == "using" ||
             t.text == "typedef")) {
            while (i < end && code[i].text != ";")
                ++i;
            ++i;
            continue;
        }
        if (isIdent(t) && t.text == "template") {
            // Skip the parameter list `<...>`.
            std::size_t j = i + 1;
            int depth = 0;
            for (; j < end; ++j) {
                if (code[j].text == "<")
                    ++depth;
                else if (code[j].text == ">" && --depth == 0)
                    break;
            }
            i = j + 1;
            continue;
        }

        // Member function or member variable: find the declarator.
        std::size_t stmt = i;
        std::size_t j = i;
        bool handled = false;
        for (; j < end; ++j) {
            const CodeToken &u = code[j];
            if (u.text == ";") {
                ++j;
                handled = true;
                break; // nothing declared we care about
            }
            if (!isIdent(u) || j + 1 >= end)
                continue;

            // Operator definitions / declarations.
            std::string mname = u.text;
            std::size_t open = j + 1;
            if (u.text == "operator") {
                mname = operatorName(code, j, open);
                if (mname.empty()) {
                    while (j < end && code[j].text != ";" &&
                           code[j].text != "{")
                        ++j;
                    if (j < end && code[j].text == "{")
                        j = matchForward(code, j);
                    ++j;
                    handled = true;
                    break;
                }
            } else if (code[j + 1].text != "(") {
                const std::string &nx = code[j + 1].text;
                if (nx == ";" || nx == "=" || nx == "[" || nx == "{") {
                    // Member variable declarator.
                    info.members.insert(u.text);
                    std::string elem;
                    std::string base =
                        declBaseType(code, stmt, j, elem);
                    if (!base.empty()) {
                        info.memberTypes[u.text] = base;
                        if (!elem.empty())
                            info.memberElemTypes[u.text] = elem;
                    }
                    std::size_t k = j + 1;
                    int brace = 0;
                    while (k < end) {
                        if (code[k].text == "{")
                            ++brace;
                        else if (code[k].text == "}")
                            --brace;
                        else if (code[k].text == ";" && brace == 0)
                            break;
                        ++k;
                    }
                    j = k + 1;
                    handled = true;
                    break;
                }
                continue;
            }
            if (isKeywordCall(mname))
                continue;

            // Method (or constructor). Find body or decl end.
            std::size_t close;
            if (!parenSpan(code, open, close)) {
                j = end;
                handled = true;
                break;
            }
            int arity = countArgs(code, open, close);
            std::size_t body = findBodyBrace(code, close + 1);
            if (body == static_cast<std::size_t>(-1)) {
                // Declaration (or `= default` / `= 0`): record it so
                // the call graph knows the name exists but has no
                // visible body, then skip past ';'.
                info.methodDecls.insert(mname);
                std::size_t k = close + 1;
                while (k < end && code[k].text != ";")
                    ++k;
                j = k + 1;
            } else {
                std::size_t bclose = matchForward(code, body);
                MethodInfo m;
                m.name = mname;
                m.line = u.line;
                m.arity = arity;
                m.file = file;
                m.params = parseParams(code, open, close);
                m.body =
                    slice(code, body + 1, bclose < end ? bclose : end);
                info.methods.push_back(std::move(m));
                j = (bclose < end ? bclose : end) + 1;
            }
            handled = true;
            break;
        }
        i = handled ? (j > i ? j : i + 1) : j;
        if (!handled)
            ++i;
    }
}

} // namespace symbol_detail

/** One free-function definition. */
struct FuncDef
{
    std::string ns;   //!< enclosing namespace ("a::b", "" at global)
    std::string name;
    int arity = 0;
    int line = 0;
    std::string file; //!< tree-relative defining file
    std::vector<CodeToken> body;
    /// (name, base type) per parameter, in declaration order.
    std::vector<std::pair<std::string, std::string>> params;
};

/**
 * The whole-tree symbol index. `classes` is the class database
 * (members with their types, method bodies, bodiless declarations);
 * `frees` adds free-function definitions; `aliases` records
 * `using X = ...` names so cast syntax is not mistaken for calls.
 */
struct SymbolIndex
{
    ClassDb classes;
    std::vector<FuncDef> frees;
    /// free-function name -> indices into `frees` (the overload set).
    std::map<std::string, std::vector<std::size_t>> freesByName;
    /// `using X = ...` -> base type ident of the aliased type
    /// ("TaggedU64", "function", "uint64_t", ...).
    std::map<std::string, std::string> aliases;

    const ClassInfo *
    findClass(const std::string &name) const
    {
        auto it = classes.find(name);
        return it == classes.end() ? nullptr : &it->second;
    }
};

/** Build the full symbol index over every file of the tree. */
inline SymbolIndex
buildSymbolIndex(const SourceTree &tree)
{
    using namespace symbol_detail;
    SymbolIndex sym;

    // Phase 1: class/struct bodies (members, inline methods, decls).
    for (const auto &f : tree.files) {
        const auto &code = f.code;
        for (std::size_t i = 0; i < code.size(); ++i) {
            if (!isIdent(code[i]) ||
                (code[i].text != "class" && code[i].text != "struct"))
                continue;
            if (i > 0 && (code[i - 1].text == "enum" ||
                          code[i - 1].text == "<" ||
                          code[i - 1].text == ","))
                continue; // enum class / template parameter
            std::size_t next = parseClassDef(code, i, sym.classes, f.rel);
            if (next > i + 1)
                i = next - 1;
        }
    }

    // Phase 2: out-of-line method definitions `Type Class::method(...)`
    // joined to their class, `using` aliases, and free-function
    // definitions with their enclosing namespace.
    for (const auto &f : tree.files) {
        const auto &code = f.code;
        std::vector<std::pair<std::string, std::size_t>> ns_stack;
        for (std::size_t i = 0; i < code.size(); ++i) {
            // Track namespace scopes by their closing brace index.
            while (!ns_stack.empty() && i >= ns_stack.back().second)
                ns_stack.pop_back();
            if (isIdent(code[i]) && code[i].text == "namespace") {
                std::string name;
                std::size_t j = i + 1;
                while (j < code.size() && code[j].text != "{" &&
                       code[j].text != ";" && code[j].text != "=") {
                    name += code[j].text;
                    ++j;
                }
                if (j < code.size() && code[j].text == "{") {
                    std::size_t close = matchForward(code, j);
                    ns_stack.emplace_back(name, close);
                    i = j;
                }
                continue;
            }
            if (isIdent(code[i]) && code[i].text == "using" &&
                i + 2 < code.size() && isIdent(code[i + 1]) &&
                code[i + 2].text == "=") {
                // Alias target base: the ident before the first '<',
                // else the last ident of the right-hand side.
                std::string base;
                for (std::size_t j = i + 3;
                     j < code.size() && code[j].text != ";"; ++j) {
                    if (code[j].text == "<")
                        break;
                    if (isIdent(code[j]) && code[j].text != "std" &&
                        !isDeclNoise(code[j].text))
                        base = code[j].text;
                }
                sym.aliases[code[i + 1].text] = base;
                continue;
            }
            // Skip class bodies: their methods came from phase 1.
            if (isIdent(code[i]) &&
                (code[i].text == "class" || code[i].text == "struct") &&
                (i == 0 || (code[i - 1].text != "enum" &&
                            code[i - 1].text != "<" &&
                            code[i - 1].text != ","))) {
                for (std::size_t j = i + 2; j < end_scan(code, i); ++j) {
                    const std::string &t = code[j].text;
                    if (t == "{") {
                        std::size_t close = matchForward(code, j);
                        i = close < code.size() ? close : code.size() - 1;
                        break;
                    }
                    if (t == ";" || t == "(" || t == ")" || t == "=" ||
                        t == ">")
                        break;
                }
                continue;
            }
            if (!isIdent(code[i]) || i + 1 >= code.size())
                continue;

            // Out-of-line method: `Class :: name (`.
            if (i + 4 < code.size() && code[i + 1].text == ":" &&
                code[i + 2].text == ":" && isIdent(code[i + 3]) &&
                code[i + 4].text == "(") {
                auto cls = sym.classes.find(code[i].text);
                if (cls == sym.classes.end())
                    continue;
                std::size_t close;
                if (!parenSpan(code, i + 4, close))
                    continue;
                std::size_t body = findBodyBrace(code, close + 1);
                if (body == static_cast<std::size_t>(-1))
                    continue;
                std::size_t bclose = matchForward(code, body);
                if (bclose >= code.size())
                    continue;
                MethodInfo m;
                m.name = code[i + 3].text;
                m.line = code[i + 3].line;
                m.arity = countArgs(code, i + 4, close);
                m.file = f.rel;
                m.params = parseParams(code, i + 4, close);
                m.body = slice(code, body + 1, bclose);
                cls->second.methods.push_back(std::move(m));
                i = bclose;
                continue;
            }

            // Free-function definition: type-ish token, then
            // `name ( params ) ... {`. Namespaced scope recorded.
            if (i == 0 || code[i + 1].text != "(" ||
                isKeywordCall(code[i].text))
                continue;
            const CodeToken &prev = code[i - 1];
            bool type_before = (isIdent(prev) && !isKeywordCall(prev.text) &&
                                prev.text != "return") ||
                               prev.text == ">" || prev.text == "*" ||
                               prev.text == "&";
            if (!type_before)
                continue;
            std::size_t close;
            if (!parenSpan(code, i + 1, close))
                continue;
            std::size_t body = findBodyBrace(code, close + 1);
            if (body == static_cast<std::size_t>(-1))
                continue;
            std::size_t bclose = matchForward(code, body);
            if (bclose >= code.size())
                continue;
            FuncDef fd;
            for (const auto &[n, c] : ns_stack) {
                if (fd.ns.empty())
                    fd.ns = n;
                else
                    fd.ns += "::" + n;
            }
            fd.name = code[i].text;
            fd.line = code[i].line;
            fd.file = f.rel;
            fd.params = parseParams(code, i + 1, close);
            fd.arity = static_cast<int>(fd.params.size());
            fd.body = slice(code, body + 1, bclose);
            sym.freesByName[fd.name].push_back(sym.frees.size());
            sym.frees.push_back(std::move(fd));
            i = bclose;
        }
    }

    // Phase 3: declaration/definition reconciliation — a method with
    // a body anywhere in the tree is no longer a bodiless declaration.
    for (auto &[name, cls] : sym.classes)
        for (const auto &m : cls.methods)
            cls.methodDecls.erase(m.name);
    return sym;
}

} // namespace hopp::analysis
