/**
 * @file
 * File loading and pre-processing for decepticon-lint: splits a
 * translation unit into a raw view, a code view with comments and
 * string/char literals blanked (line structure preserved, so rule
 * hits report real line numbers), a per-line comment text view, and
 * the parsed suppression comments. Also home of the suppression
 * matching shared by the per-file and cross-TU emit paths.
 */

#include "lint.hh"

#include <cctype>
#include <fstream>
#include <sstream>

namespace decepticon::lint {

namespace {

/** Lexer state carried across lines. */
enum class Mode
{
    Code,
    BlockComment,
    String,
    Char,
    RawString,
};

bool
startsWith(const std::string &s, std::size_t i, const char *lit)
{
    for (std::size_t k = 0; lit[k]; ++k)
        if (i + k >= s.size() || s[i + k] != lit[k])
            return false;
    return true;
}

/** Strip leading separator punctuation from a justification ("-",
 *  "--", ":", an em dash) so `// lint: ordered-ok -- reason` and
 *  `// lint: ordered-ok reason` read the same. */
std::string
trimJustification(std::string s)
{
    s = trim(s);
    std::size_t b = 0;
    while (b < s.size() &&
           (s[b] == '-' || s[b] == ':' || static_cast<unsigned char>(s[b]) >= 0x80))
        ++b;
    return trim(s.substr(b));
}

enum class ParseResult
{
    NotASuppression,
    Ok,
    UnknownRule, ///< `suppress(...)` naming a rule id we don't have
};

/** Parse the payload after "lint:" / "lint-file:" into (rule,
 *  justification). Accepts `suppress(Rn) why` for R1..R9, R11 and the R3
 *  alias `ordered-ok why`. A `suppress(...)` with any other id is an
 *  error (UnknownRule), never silently inert. */
ParseResult
parseSuppression(const std::string &payload, Suppression &out,
                 std::string *badRule)
{
    std::string p = trim(payload);
    if (startsWith(p, 0, "ordered-ok")) {
        out.rule = "R3";
        out.justification = trimJustification(p.substr(10));
        return ParseResult::Ok;
    }
    if (startsWith(p, 0, "suppress(")) {
        std::size_t close = p.find(')');
        if (close == std::string::npos)
            return ParseResult::NotASuppression;
        const std::string rule = trim(p.substr(9, close - 9));
        bool valid = rule.size() >= 2 && rule[0] == 'R';
        int n = 0;
        for (std::size_t k = 1; valid && k < rule.size(); ++k) {
            if (!std::isdigit(static_cast<unsigned char>(rule[k])))
                valid = false;
            else
                n = n * 10 + (rule[k] - '0');
        }
        if (!valid || n < 1 || n > 11 || n == 10) { // R10 is retired
            if (badRule)
                *badRule = rule;
            return ParseResult::UnknownRule;
        }
        out.rule = rule;
        out.justification = trimJustification(p.substr(close + 1));
        return ParseResult::Ok;
    }
    return ParseResult::NotASuppression;
}

} // namespace

bool
isHeaderPath(const std::string &path)
{
    auto ends = [&path](const char *suf) {
        std::string s(suf);
        return path.size() >= s.size() &&
               path.compare(path.size() - s.size(), s.size(), s) == 0;
    };
    return ends(".hh") || ends(".h") || ends(".hpp");
}

bool
SourceFile::isHeader() const
{
    return isHeaderPath(path);
}

bool
loadSource(const std::string &absPath, const std::string &relPath,
           SourceFile &out)
{
    std::ifstream in(absPath, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    out = SourceFile{};
    out.path = relPath;

    // Split into lines (tolerate missing trailing newline and CRLF).
    std::string line;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == '\n') {
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (i == text.size() && line.empty())
                break;
            out.raw.push_back(line);
            line.clear();
        } else {
            line += text[i];
        }
    }

    // Blank comments and literal contents, keeping delimiters and
    // line lengths so columns/lines in the code view match the raw
    // view. Comment text is preserved separately per line.
    Mode mode = Mode::Code;
    std::string rawDelim; // raw-string delimiter, e.g. `)foo"`
    out.code.resize(out.raw.size());
    out.comments.resize(out.raw.size());
    for (std::size_t li = 0; li < out.raw.size(); ++li) {
        const std::string &src = out.raw[li];
        std::string &code = out.code[li];
        std::string &com = out.comments[li];
        code.assign(src.size(), ' ');
        for (std::size_t i = 0; i < src.size();) {
            switch (mode) {
            case Mode::Code:
                if (startsWith(src, i, "//")) {
                    com.append(src, i, std::string::npos);
                    i = src.size();
                } else if (startsWith(src, i, "/*")) {
                    mode = Mode::BlockComment;
                    i += 2;
                } else if (startsWith(src, i, "R\"") ||
                           startsWith(src, i, "LR\"") ||
                           startsWith(src, i, "uR\"") ||
                           startsWith(src, i, "UR\"")) {
                    // R"delim( ... )delim"
                    std::size_t q = src.find('"', i);
                    std::size_t open = src.find('(', q);
                    if (open == std::string::npos) {
                        code[i] = src[i];
                        ++i;
                        break;
                    }
                    rawDelim = ")" + src.substr(q + 1, open - q - 1) + "\"";
                    for (std::size_t k = i; k <= open; ++k)
                        code[k] = src[k];
                    i = open + 1;
                    mode = Mode::RawString;
                } else if (src[i] == '"') {
                    code[i] = '"';
                    ++i;
                    mode = Mode::String;
                } else if (src[i] == '\'' && i > 0 &&
                           (std::isalnum(static_cast<unsigned char>(
                                src[i - 1])) ||
                            src[i - 1] == '_')) {
                    // digit separator (1'000'000), not a char literal
                    code[i] = src[i];
                    ++i;
                } else if (src[i] == '\'') {
                    code[i] = '\'';
                    ++i;
                    mode = Mode::Char;
                } else {
                    code[i] = src[i];
                    ++i;
                }
                break;
            case Mode::BlockComment:
                if (startsWith(src, i, "*/")) {
                    mode = Mode::Code;
                    i += 2;
                } else {
                    com += src[i];
                    ++i;
                }
                break;
            case Mode::String:
            case Mode::Char: {
                const char delim = mode == Mode::String ? '"' : '\'';
                if (src[i] == '\\') {
                    i += 2;
                } else if (src[i] == delim) {
                    code[i] = delim;
                    ++i;
                    mode = Mode::Code;
                } else {
                    ++i;
                }
                break;
            }
            case Mode::RawString:
                if (startsWith(src, i, rawDelim.c_str())) {
                    i += rawDelim.size();
                    code[i - 1] = '"';
                    mode = Mode::Code;
                } else {
                    ++i;
                }
                break;
            }
        }
        // An unterminated string/char literal cannot span lines.
        if (mode == Mode::String || mode == Mode::Char)
            mode = Mode::Code;
    }

    // Parse suppressions out of the per-line comment text. A line
    // suppression on a comment-only line targets the following line.
    for (std::size_t li = 0; li < out.comments.size(); ++li) {
        const std::string &com = out.comments[li];
        bool fileWide = false;
        std::size_t at = com.find("lint-file:");
        std::size_t payloadStart;
        if (at != std::string::npos) {
            fileWide = true;
            payloadStart = at + 10;
        } else {
            at = com.find("lint:");
            if (at == std::string::npos)
                continue;
            payloadStart = at + 5;
        }
        Suppression s;
        std::string badRule;
        switch (parseSuppression(com.substr(payloadStart), s, &badRule)) {
        case ParseResult::NotASuppression:
            continue;
        case ParseResult::UnknownRule:
            out.badSuppressions.emplace_back(static_cast<int>(li + 1),
                                             badRule);
            continue;
        case ParseResult::Ok:
            break;
        }
        if (fileWide) {
            s.line = static_cast<int>(li + 1);
            out.fileSuppressions.push_back(s);
        } else if (!trim(out.code[li]).empty()) {
            s.line = static_cast<int>(li + 1); // trailing comment
            out.lineSuppressions.push_back(s);
        } else {
            // Comment-only line: target the next code line; the rest
            // of a multi-line comment continues the justification.
            std::size_t j = li + 1;
            while (j < out.code.size() && trim(out.code[j]).empty()) {
                std::string cont = out.comments[j];
                std::size_t b = 0;
                while (b < cont.size() &&
                       (cont[b] == '/' || cont[b] == '*' ||
                        std::isspace(static_cast<unsigned char>(cont[b]))))
                    ++b;
                cont = trim(cont.substr(b));
                if (!cont.empty())
                    s.justification += (s.justification.empty() ? "" : " ") +
                                       cont;
                ++j;
            }
            s.line = static_cast<int>(j + 1);
            out.lineSuppressions.push_back(s);
        }
    }
    return true;
}

namespace {

/** The suppression a hit on (line, rule) consumes: a line suppression
 *  first, then a file-wide one. */
Suppression *
findSuppression(FileSummary &s, int line, const std::string &rule)
{
    for (Suppression &sup : s.lineSuppressions)
        if (sup.line == line && sup.rule == rule)
            return &sup;
    for (Suppression &sup : s.fileSuppressions)
        if (sup.rule == rule)
            return &sup;
    return nullptr;
}

/** Shared by the per-file and cross-TU emit paths: a hit covered by a
 *  justified suppression goes to `suppressed`, any other hit to
 *  `violations`. A matched suppression is flagged `used` either way. */
void
emit(FileSummary &s, int line, const std::string &rule,
     const std::string &message, std::vector<Violation> &violations,
     std::vector<Violation> &suppressed)
{
    Violation v{s.path, line, rule, message, {}};
    Suppression *sup = findSuppression(s, line, rule);
    if (sup)
        sup->used = true;
    if (sup && !sup->justification.empty()) {
        v.justification = sup->justification;
        suppressed.push_back(v);
    } else {
        violations.push_back(v); // bare suppression: does not suppress
    }
}

} // namespace

void
emitLocal(FileSummary &s, int line, const std::string &rule,
          const std::string &message)
{
    emit(s, line, rule, message, s.violations, s.suppressed);
}

void
emitCross(FileSummary &s, int line, const std::string &rule,
          const std::string &message, Report &out)
{
    emit(s, line, rule, message, out.violations, out.suppressed);
}

void
checkUnusedSuppressions(const FileSummary &s, Report &out)
{
    for (const Suppression &sup : s.lineSuppressions)
        if (!sup.used)
            out.violations.push_back(
                {s.path, sup.line, "R5",
                 "stale suppression: no " + sup.rule +
                     " violation on this line (remove the comment)",
                 {}});
    for (const Suppression &sup : s.fileSuppressions)
        if (!sup.used)
            out.violations.push_back(
                {s.path, sup.line, "R5",
                 "stale file-wide suppression: no " + sup.rule +
                     " violation in this file (remove the comment)",
                 {}});
}

} // namespace decepticon::lint
