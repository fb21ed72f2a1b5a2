/**
 * @file
 * R11 for decepticon-lint: code that only tests reach.
 *
 * The subjects are the functions and classes declared in src/
 * headers. A subject is reached when its name appears as a code token
 * in a caller file ([reach.callers]: the product, the benches, the
 * examples and the tools that read its exports) at a place that is
 * not itself a declaration or definition. tests/ is no caller.
 * Matching is by name only: two symbols that share a name share their
 * uses, so the rule can miss dead code but never flags reached code.
 */

#include "lint.hh"

#include <cassert>

namespace decepticon::lint {

namespace {

bool
isClassKey(const std::string &s)
{
    return s == "class" || s == "struct" || s == "union";
}

/** A brace scope of a header walk. Declarations live only in open
 *  (namespace or class) scopes; `cls` names the class of a class
 *  scope; `head` marks a brace that ended a declaration head. */
struct Scope
{
    bool open = false;
    bool head = false;
    std::string cls;
};

/** The scope a `{` at t[brace] opens, given the declaration head
 *  t[stmt, brace). A class scope is also recorded: its name token is
 *  a declaration site, and in a src/ header (`subject`) a Decl. */
Scope
headScope(ReachFile &rf, std::size_t stmt, std::size_t brace, bool subject)
{
    const std::vector<Token> &t = rf.toks;
    std::size_t key = brace;
    for (std::size_t k = stmt; k < brace; ++k) {
        if (t[k].text == "namespace" || t[k].text == "extern")
            return {true, true, ""};
        if (t[k].text == "enum")
            return {false, true, ""};
        if (isClassKey(t[k].text))
            key = k;
    }
    if (key == brace)
        return {false, true, ""}; // function body or initializer
    std::size_t n = key + 1;
    if (tokText(t, n) == "alignas")
        while (n < brace && t[n].text != ")")
            ++n;
    while (n < brace && !t[n].ident)
        ++n;
    if (n == brace)
        return {true, true, ""}; // anonymous class
    const std::string &after = tokText(t, n + 1);
    if (after != "{" && after != ":" && after != "final" && after != "<")
        return {false, true, ""}; // `template <class T> T f() {`
    rf.declSite[n] = true;
    if (subject && after != "<") // a specialization declares nothing
        rf.decls.push_back({t[n].text, t[n].line});
    return {true, true, t[n].text};
}

/** Walk a header's namespace and class scopes. The first
 *  `name (` of a declaration whose name follows a type is a declared
 *  function; constructors, destructors and forward declarations are
 *  declaration sites that declare nothing new. */
void
walkHeader(ReachFile &rf, bool subject)
{
    const std::vector<Token> &t = rf.toks;
    std::vector<Scope> scopes{{true, false, ""}};
    std::size_t stmt = 0; // first token of the current declaration
    int depth = 0;        // parens open in it
    bool called = false;  // it already had a top-level `(`
    bool assigned = false;
    auto reset = [&](std::size_t next) {
        stmt = next;
        depth = 0;
        called = assigned = false;
    };
    for (std::size_t i = 0; i < t.size(); ++i) {
        // Only one-character punctuation moves the walk; names are
        // read back from the `(` that follows them.
        if (t[i].ident || t[i].text.size() != 1)
            continue;
        const char x = t[i].text[0];
        if (x == '#') { // a preprocessor line declares nothing
            while (i + 1 < t.size() && t[i + 1].line == t[i].line)
                ++i;
            reset(i + 1);
            continue;
        }
        const Scope &sc = scopes.back();
        if (x == '{') {
            const bool head = sc.open && depth == 0;
            scopes.push_back(head && !assigned ? headScope(rf, stmt, i, subject)
                                               : Scope{false, head, ""});
            if (head)
                reset(i + 1);
            continue;
        }
        if (x == '}') {
            const bool head = scopes.back().head;
            if (scopes.size() > 1)
                scopes.pop_back();
            if (head)
                reset(i + 1);
            continue;
        }
        if (!sc.open)
            continue;
        if (x == ';') {
            if (i >= 2 && t[i - 1].ident && isClassKey(t[i - 2].text))
                rf.declSite[i - 1] = true; // forward declaration
            reset(i + 1);
        } else if (x == ':' && i > 0 &&
                   (t[i - 1].text == "public" || t[i - 1].text == "private" ||
                    t[i - 1].text == "protected")) {
            reset(i + 1);
        } else if (x == '=' && depth == 0) {
            assigned = true;
        } else if (x == ')') {
            --depth;
        } else if (x == '(') {
            const bool first = depth++ == 0 && !called && !assigned;
            called = called || depth == 1;
            if (!first || i == stmt || !t[i - 1].ident ||
                isKeyword(t[i - 1].text))
                continue;
            const std::size_t c = i - 1;
            const std::string &prev = tokText(t, c > stmt ? c - 1 : t.size());
            if (t[c].text == sc.cls || prev == "~") {
                rf.declSite[c] = true; // constructor / destructor
                continue;
            }
            const bool arrow = prev == ">" && c >= 2 && t[c - 2].text == "-";
            const bool typed = (c > stmt && t[c - 1].ident &&
                                prev != "operator") ||
                               prev == "*" || prev == "&" || prev == "]" ||
                               (prev == ">" && !arrow);
            if (!typed || t[stmt].text == "using" || t[stmt].text == "typedef")
                continue;
            rf.declSite[c] = true;
            if (subject)
                rf.decls.push_back({t[c].text, t[c].line});
        }
    }
}

/** Index one caller file: its header declarations, and its
 *  definitions. A definition's name and qualifiers (`Cls::` in
 *  `Cls::name(...) {`) are declaration sites. */
ReachFile
indexReach(const std::string &path, bool header, TuIndex &&ix)
{
    ReachFile rf;
    rf.path = path;
    rf.toks = std::move(ix.toks);
    rf.declSite.assign(rf.toks.size(), false);
    const std::vector<Token> &t = rf.toks;
    if (header)
        walkHeader(rf, hasPrefix(path, "src/"));
    for (const TuIndex::FnDef &fd : ix.functions) {
        rf.declSite[fd.nameTok] = true;
        std::size_t j = fd.nameTok;
        if (j > 0 && t[j - 1].text == "~")
            --j;
        for (; j >= 2 && t[j - 1].text == "::" && t[j - 2].ident; j -= 2)
            rf.declSite[j - 2] = true;
    }
    return rf;
}

/** A cheap key into ReachPass::unusedByKey_ from a name's length
 *  and three of its characters. */
std::size_t
filterKey(const std::string &s)
{
    const auto at = [&s](std::size_t i) {
        return static_cast<std::size_t>(static_cast<unsigned char>(s[i]));
    };
    return (s.size() * 131 + at(0) * 31 + at(s.size() / 2) * 7 +
            at(s.size() - 1)) %
           ReachPass::kFilterKeys;
}

} // namespace

void
ReachPass::add(const std::string &path, bool header, TuIndex &&ix)
{
    ReachFile rf = indexReach(path, header, std::move(ix));
    if (header && hasPrefix(path, "src/")) {
        assert(!sealed_ && "runLint feeds src/ headers first");
        headers_.push_back(std::move(rf));
        return;
    }
    seal();
    markUses(rf);
}

void
ReachPass::seal()
{
    if (sealed_)
        return;
    sealed_ = true;
    for (const ReachFile &rf : headers_)
        for (const ReachFile::Decl &d : rf.decls)
            if (names_.emplace(d.name, false).second)
                ++unusedByKey_[filterKey(d.name)];
    for (ReachFile &rf : headers_) {
        markUses(rf);
        rf.toks = {}; // only the decls are needed from here on
        rf.declSite = {};
    }
}

void
ReachPass::markUses(const ReachFile &rf)
{
    for (std::size_t k = 0; k < rf.toks.size(); ++k) {
        if (!rf.toks[k].ident || rf.declSite[k])
            continue;
        const std::size_t key = filterKey(rf.toks[k].text);
        if (unusedByKey_[key] == 0)
            continue; // no unused subject has this key: skip the hash
        const auto it = names_.find(rf.toks[k].text);
        if (it != names_.end() && !it->second) {
            it->second = true;
            --unusedByKey_[key];
        }
    }
}

void
ReachPass::report(std::vector<FileSummary> &sums, Report &out)
{
    seal();
    std::map<std::string, std::size_t> byPath;
    for (std::size_t i = 0; i < sums.size(); ++i)
        byPath[sums[i].path] = i;
    for (const ReachFile &rf : headers_) {
        std::set<std::string> reported; // one finding per name per header
        for (const ReachFile::Decl &d : rf.decls) {
            if (names_.at(d.name) || !reported.insert(d.name).second)
                continue;
            emitCross(sums[byPath.at(rf.path)], d.line, "R11",
                      "`" + d.name + "` is reached from no caller outside "
                          "its declaration, its definition and tests/ "
                          "(delete it, or suppress(R11) with why it stays)",
                      out);
        }
    }
}

} // namespace decepticon::lint
