/**
 * @file
 * Symbol indexer for decepticon-lint v2: a single pass over the
 * blanked token stream recovers just enough structure for the
 * dataflow rules — function definitions with body ranges, lambda
 * scopes with parsed capture lists, parallel-task marking
 * (lambdas passed to parallelFor/parallelForRange), Rng and
 * float-accumulator lvalue declarations, and per-function lock
 * acquisition sequences with the calls made while holding them.
 *
 * Everything here is a deliberate heuristic over tokens, not a
 * parser: the repo's house style (no function-like macros in src/,
 * no K&R definitions, guards via lint itself) keeps the patterns
 * reliable, and every rule built on top reports through the
 * suppression machinery so a justified exception is one comment.
 */

#include "lint.hh"

#include <cctype>

namespace decepticon::lint {

std::vector<Token>
tokenize(const SourceFile &f)
{
    std::vector<Token> toks;
    for (std::size_t li = 0; li < f.code.size(); ++li) {
        const std::string &s = f.code[li];
        const int line = static_cast<int>(li + 1);
        for (std::size_t i = 0; i < s.size();) {
            const unsigned char c = static_cast<unsigned char>(s[i]);
            if (std::isspace(c)) {
                ++i;
            } else if (std::isalpha(c) || c == '_') {
                std::size_t b = i;
                while (i < s.size() &&
                       (std::isalnum(static_cast<unsigned char>(s[i])) ||
                        s[i] == '_'))
                    ++i;
                toks.push_back({s.substr(b, i - b), line, true});
            } else if (std::isdigit(c)) {
                std::size_t b = i;
                while (i < s.size() &&
                       (std::isalnum(static_cast<unsigned char>(s[i])) ||
                        s[i] == '.'))
                    ++i;
                toks.push_back({s.substr(b, i - b), line, false});
            } else if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
                toks.push_back({"::", line, false});
                i += 2;
            } else {
                toks.push_back({std::string(1, s[i]), line, false});
                ++i;
            }
        }
    }
    return toks;
}

const std::string &
tokText(const std::vector<Token> &t, std::size_t i)
{
    static const std::string empty;
    return i < t.size() ? t[i].text : empty;
}

bool
isKeyword(const std::string &s)
{
    static const std::set<std::string> kw = {
        "if",       "for",      "while",     "switch",   "return",
        "sizeof",   "alignof",  "alignas",   "catch",    "new",
        "delete",   "throw",    "else",      "do",       "case",
        "default",  "break",    "continue",  "goto",     "using",
        "typedef",  "template", "typename",  "class",    "struct",
        "enum",     "union",    "namespace", "public",   "private",
        "protected", "operator", "decltype", "noexcept", "static_assert",
        "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
        "co_await", "co_return", "co_yield", "requires",
    };
    return kw.count(s) != 0;
}

std::size_t
skipTemplateArgs(const std::vector<Token> &t, std::size_t i)
{
    if (tokText(t, i) != "<")
        return i;
    int depth = 0;
    for (std::size_t k = i; k < t.size(); ++k) {
        if (t[k].text == "<")
            ++depth;
        else if (t[k].text == ">" && --depth == 0)
            return k + 1;
        else if (t[k].text == ";")
            break; // statement ended: was a comparison, not a template
    }
    return i;
}

namespace {

/** Index of the ')' matching the '(' at `open`, or t.size(). */
std::size_t
matchParen(const std::vector<Token> &t, std::size_t open)
{
    int depth = 0;
    for (std::size_t k = open; k < t.size(); ++k) {
        if (t[k].text == "(")
            ++depth;
        else if (t[k].text == ")" && --depth == 0)
            return k;
    }
    return t.size();
}

/** Index of the '}' matching the '{' at `open`, or t.size(). */
std::size_t
matchBrace(const std::vector<Token> &t, std::size_t open)
{
    int depth = 0;
    for (std::size_t k = open; k < t.size(); ++k) {
        if (t[k].text == "{")
            ++depth;
        else if (t[k].text == "}" && --depth == 0)
            return k;
    }
    return t.size();
}

/** Index of the ']' matching the '[' at `open`, or t.size(). */
std::size_t
matchBracket(const std::vector<Token> &t, std::size_t open)
{
    int depth = 0;
    for (std::size_t k = open; k < t.size(); ++k) {
        if (t[k].text == "[")
            ++depth;
        else if (t[k].text == "]" && --depth == 0)
            return k;
    }
    return t.size();
}

/** Number of arguments inside ( open .. close ): top-level commas
 *  plus one, zero when empty. Brackets and braces (lambda bodies,
 *  init lists) shield their commas. */
int
countArgs(const std::vector<Token> &t, std::size_t open, std::size_t close)
{
    if (close <= open + 1)
        return 0;
    int paren = 0, brace = 0, bracket = 0, commas = 0;
    for (std::size_t k = open; k < close; ++k) {
        const std::string &x = t[k].text;
        if (x == "(")
            ++paren;
        else if (x == ")")
            --paren;
        else if (x == "{")
            ++brace;
        else if (x == "}")
            --brace;
        else if (x == "[")
            ++bracket;
        else if (x == "]")
            --bracket;
        else if (x == "," && paren == 1 && brace == 0 && bracket == 0)
            ++commas;
    }
    return commas + 1;
}

} // namespace

/** Detect function definitions: `name ( ... ) [specifiers |
 *  ctor-init-list] {`. Control-flow keywords are excluded; a body
 *  must follow or the candidate is a declaration/call. */
void
findFunctions(const std::vector<Token> &t, TuIndex &out)
{
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!t[i].ident || isKeyword(t[i].text) || t[i + 1].text != "(")
            continue;
        // `.name(` / `->name(` are member calls, never definitions.
        if (i >= 1 && (t[i - 1].text == "." || t[i - 1].text == ">"))
            continue;
        const std::size_t close = matchParen(t, i + 1);
        if (close >= t.size())
            continue;
        std::size_t k = close + 1;
        bool body = false;
        // Skip trailing specifiers / trailing return / ctor-init.
        while (k < t.size()) {
            const std::string &x = t[k].text;
            if (x == "{") {
                body = true;
                break;
            }
            if (x == ";" || x == "=" || x == "," || x == ")" ||
                x == "]" || x == "}")
                break; // declaration, call, or initializer — no body
            if (x == ":") {
                // Constructor init list: `ident (args)` or
                // `ident {args}` entries, comma-separated, then `{`.
                ++k;
                bool ok = true;
                while (k < t.size() && ok) {
                    while (k < t.size() &&
                           (t[k].ident || t[k].text == "::" ||
                            t[k].text == "<" || t[k].text == ">"))
                        ++k;
                    if (tokText(t, k) == "(")
                        k = matchParen(t, k) + 1;
                    else if (tokText(t, k) == "{")
                        k = matchBrace(t, k) + 1;
                    else
                        ok = false;
                    if (ok && tokText(t, k) == ",")
                        ++k;
                    else
                        break;
                }
                if (ok && tokText(t, k) == "{")
                    body = true;
                break;
            }
            if (x == "<") {
                const std::size_t n = skipTemplateArgs(t, k);
                k = n == k ? k + 1 : n;
                continue;
            }
            if (t[k].ident || x == "::" || x == "&" || x == "*" ||
                x == "-" || x == ">" || x == "[" || x == "]") {
                ++k;
                continue;
            }
            break;
        }
        if (!body)
            continue;
        TuIndex::FnDef fd;
        fd.name = t[i].text;
        fd.arity = countArgs(t, i + 1, close);
        fd.line = t[i].line;
        fd.nameTok = i;
        fd.bodyBegin = k;
        fd.bodyEnd = matchBrace(t, k);
        out.functions.push_back(fd);
    }
}

namespace {

/** Parse lambda capture lists and body ranges. A '[' introduces a
 *  lambda when the previous token cannot end an expression (so
 *  `arr[i]` and `f()[0]` stay subscripts); `[[attr]]` is skipped. */
void
findLambdas(const std::vector<Token> &t, TuIndex &out)
{
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].text != "[")
            continue;
        if (tokText(t, i + 1) == "[")
            continue; // [[attribute]]
        if (i > 0) {
            const Token &p = t[i - 1];
            const bool prevEndsExpr =
                (p.ident && !isKeyword(p.text)) || p.text == ")" ||
                p.text == "]" ||
                (!p.text.empty() &&
                 std::isdigit(static_cast<unsigned char>(p.text[0])));
            if (prevEndsExpr)
                continue; // subscript
        }
        const std::size_t close = matchBracket(t, i);
        if (close >= t.size())
            continue;
        // Locate the body: optional (params), optional specifiers,
        // then '{'. Anything else means this was not a lambda.
        std::size_t k = close + 1;
        if (tokText(t, k) == "(")
            k = matchParen(t, k) + 1;
        while (k < t.size()) {
            const std::string &x = t[k].text;
            if (x == "{")
                break;
            if (x == "mutable" || x == "noexcept" || x == "constexpr" ||
                x == "->" || x == "-" || x == ">" || x == "::" ||
                x == "&" || x == "*" || t[k].ident) {
                ++k;
                continue;
            }
            if (x == "(") { // noexcept(...) operand
                k = matchParen(t, k) + 1;
                continue;
            }
            if (x == "<") {
                const std::size_t n = skipTemplateArgs(t, k);
                k = n == k ? k + 1 : n;
                continue;
            }
            break;
        }
        if (tokText(t, k) != "{")
            continue;

        LambdaInfo lam;
        lam.introTok = i;
        lam.line = t[i].line;
        lam.bodyBegin = k;
        lam.bodyEnd = matchBrace(t, k);

        // Split the capture list on top-level commas.
        std::size_t part = i + 1;
        while (part < close) {
            std::size_t end = part;
            int paren = 0, bracket = 0, brace = 0;
            while (end < close) {
                const std::string &x = t[end].text;
                if (x == "(")
                    ++paren;
                else if (x == ")")
                    --paren;
                else if (x == "[")
                    ++bracket;
                else if (x == "]")
                    --bracket;
                else if (x == "{")
                    ++brace;
                else if (x == "}")
                    --brace;
                else if (x == "," && !paren && !bracket && !brace)
                    break;
                ++end;
            }
            // Classify tokens [part, end).
            const std::size_t n = end - part;
            if (n == 1 && t[part].text == "&") {
                lam.defaultRef = true;
            } else if (n == 1 && t[part].text == "=") {
                lam.defaultCopy = true;
            } else if (n >= 1 && t[part].text == "this") {
                // captures *this members; out of scope here
            } else if (n >= 2 && t[part].text == "*" &&
                       t[part + 1].text == "this") {
                // by-value *this
            } else if (n >= 2 && t[part].text == "&" && t[part + 1].ident) {
                const std::string name = t[part + 1].text;
                if (n == 2) {
                    lam.refCaptures.insert(name);
                } else if (tokText(t, part + 2) == "=") {
                    // [&alias = expr]: reference semantics onto the
                    // first identifier of the init expression.
                    for (std::size_t q = part + 3; q < end; ++q)
                        if (t[q].ident && !isKeyword(t[q].text)) {
                            lam.refAliases[name] = t[q].text;
                            break;
                        }
                }
            } else if (n >= 1 && t[part].ident) {
                const std::string name = t[part].text;
                if (n == 1) {
                    lam.copyCaptures.insert(name);
                } else if (tokText(t, part + 1) == "=") {
                    // [p = &expr] shares by pointer; [c = expr] is a
                    // per-lambda copy (still one object across all
                    // lanes, but operator() const blocks mutation).
                    bool addrOf = false;
                    std::string target;
                    for (std::size_t q = part + 2; q < end; ++q) {
                        if (t[q].text == "&")
                            addrOf = true;
                        else if (t[q].ident && !isKeyword(t[q].text) &&
                                 target.empty())
                            target = t[q].text;
                    }
                    if (addrOf && !target.empty())
                        lam.refAliases[name] = target;
                    else if (!target.empty())
                        lam.copyCaptures.insert(name);
                }
            }
            part = end + 1;
        }
        out.lambdas.push_back(lam);
    }
}

/** Mark lambdas appearing in the argument list of a
 *  parallelFor/parallelForRange call (free, namespace-qualified, or
 *  a ThreadPool member call — the callee identifier is what
 *  matters). Nested lambdas inside the task body are conservatively
 *  parallel too: they run on the worker. */
void
markParallelTasks(const std::vector<Token> &t, TuIndex &out)
{
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!t[i].ident ||
            (t[i].text != "parallelFor" && t[i].text != "parallelForRange") ||
            t[i + 1].text != "(")
            continue;
        const std::size_t close = matchParen(t, i + 1);
        for (LambdaInfo &lam : out.lambdas)
            if (lam.introTok > i + 1 && lam.introTok < close)
                lam.parallelTask = true;
    }
}

} // namespace

void
collectTypedDecls(const std::vector<Token> &t, std::size_t begin,
                  std::size_t end, std::set<std::string> &rngNames,
                  std::set<std::string> &rngPtrs,
                  std::set<std::string> &accums)
{
    for (std::size_t i = begin; i < end && i < t.size(); ++i) {
        if (!t[i].ident)
            continue;
        const std::string &ty = t[i].text;
        const bool isRng = ty == "Rng";
        const bool isAccum = ty == "float" || ty == "double" ||
                             ty == "Tensor";
        if (!isRng && !isAccum)
            continue;
        // `vector<double>` / `static_cast<double>`: the type token
        // inside template args never declares a name (next token is
        // `>` or `,`, not a declarator).
        std::size_t k = i + 1;
        bool ptr = false;
        while (tokText(t, k) == "&" || tokText(t, k) == "*") {
            ptr = ptr || t[k].text == "*";
            ++k;
        }
        if (k >= end || !t[k].ident || isKeyword(t[k].text) ||
            t[k].text == "const")
            continue;
        const std::string &nxt = tokText(t, k + 1);
        if (nxt != ";" && nxt != "=" && nxt != "{" && nxt != "(" &&
            nxt != "," && nxt != ")")
            continue;
        if (isRng)
            (ptr ? rngPtrs : rngNames).insert(t[k].text);
        else if (!ptr)
            accums.insert(t[k].text);
    }
}

namespace {

/** Last identifier of the argument tokens [b, e) — the canonical
 *  lock name for `mu_`, `this->mu_`, `shards_[i]->mu`, ... */
std::string
lastIdentOf(const std::vector<Token> &t, std::size_t b, std::size_t e)
{
    std::string name;
    for (std::size_t k = b; k < e; ++k)
        if (t[k].ident && !isKeyword(t[k].text))
            name = t[k].text;
    return name;
}

/** Per-function lock scan: acquisition sequences (scope-aware via
 *  brace depth), intra-function order edges, and calls made while
 *  holding at least one lock. */
void
scanLocks(const std::vector<Token> &t, const TuIndex::FnDef &fd,
          FunctionInfo &out)
{
    out.name = fd.name;
    out.arity = fd.arity;
    out.line = fd.line;

    struct Held
    {
        std::string name;
        int depth;
    };
    std::vector<Held> held;
    std::set<std::string> acquiredSet;
    int depth = 0;

    for (std::size_t i = fd.bodyBegin; i < fd.bodyEnd && i < t.size();
         ++i) {
        const std::string &x = t[i].text;
        if (x == "{") {
            ++depth;
            continue;
        }
        if (x == "}") {
            --depth;
            while (!held.empty() && held.back().depth > depth)
                held.pop_back();
            continue;
        }
        if (!t[i].ident)
            continue;
        const bool isGuard = x == "lock_guard" || x == "unique_lock" ||
                             x == "scoped_lock";
        if (isGuard && tokText(t, i - 1) != "." ) {
            std::size_t k = i + 1;
            if (tokText(t, k) == "<")
                k = skipTemplateArgs(t, k);
            if (k < t.size() && t[k].ident)
                ++k; // guard variable name (absent for temporaries)
            if (tokText(t, k) != "(")
                continue;
            const std::size_t open = k;
            const std::size_t close = matchParen(t, open);
            // Split args, canonicalize each to its last identifier.
            std::vector<std::string> locks;
            bool deferred = false;
            std::size_t b = open + 1;
            while (b < close) {
                std::size_t e = b;
                int paren = 0, bracket = 0;
                while (e < close) {
                    const std::string &y = t[e].text;
                    if (y == "(")
                        ++paren;
                    else if (y == ")")
                        --paren;
                    else if (y == "[")
                        ++bracket;
                    else if (y == "]")
                        --bracket;
                    else if (y == "," && !paren && !bracket)
                        break;
                    ++e;
                }
                const std::string name = lastIdentOf(t, b, e);
                if (name == "defer_lock" || name == "try_to_lock")
                    deferred = true;
                else if (name != "adopt_lock" && !name.empty())
                    locks.push_back(name);
                b = e + 1;
            }
            if (!deferred && !locks.empty()) {
                const bool atomic =
                    x == "scoped_lock" && locks.size() > 1;
                const int line = t[i].line;
                for (const Held &h : held)
                    for (const std::string &l : locks)
                        if (h.name != l)
                            out.edges.push_back({h.name, l, line});
                if (!atomic) {
                    // Sequential multi-arg guards (unique_lock has
                    // one mutex anyway) order among themselves too.
                    for (std::size_t a = 0; a + 1 < locks.size(); ++a)
                        for (std::size_t c = a + 1; c < locks.size();
                             ++c)
                            if (locks[a] != locks[c])
                                out.edges.push_back(
                                    {locks[a], locks[c], line});
                }
                for (const std::string &l : locks) {
                    held.push_back({l, depth});
                    if (acquiredSet.insert(l).second)
                        out.acquired.push_back(l);
                }
            }
            i = close;
            continue;
        }
        // A call while holding a lock feeds one-level propagation.
        // Member calls on another object (`obj.f(`, `ptr->f(`) are
        // excluded: `ring->buf.clear()` must not name-match a
        // same-file `clear()` — only unqualified and `ns::`-qualified
        // calls can resolve to a definition we indexed.
        const std::string &prevTok = i ? t[i - 1].text : x;
        if (!held.empty() && !isKeyword(x) && tokText(t, i + 1) == "(" &&
            prevTok != "." && prevTok != ">") {
            const std::size_t close = matchParen(t, i + 1);
            HeldCall hc;
            hc.callee = x;
            hc.arity = countArgs(t, i + 1, close);
            hc.line = t[i].line;
            for (const Held &h : held)
                hc.held.push_back(h.name);
            out.heldCalls.push_back(hc);
        }
    }
}

} // namespace

TuIndex
buildTuIndex(const SourceFile &f)
{
    TuIndex ix;
    ix.toks = tokenize(f);
    findFunctions(ix.toks, ix);
    findLambdas(ix.toks, ix);
    markParallelTasks(ix.toks, ix);
    collectTypedDecls(ix.toks, 0, ix.toks.size(), ix.rngNames,
                      ix.rngPointers, ix.floatAccums);
    for (const TuIndex::FnDef &fd : ix.functions) {
        FunctionInfo fi;
        scanLocks(ix.toks, fd, fi);
        ix.lockInfo.push_back(std::move(fi));
    }
    return ix;
}

} // namespace decepticon::lint
