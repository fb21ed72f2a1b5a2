/**
 * @file
 * Orchestration and rendering for decepticon-lint: deterministic
 * directory walk, per-file analysis, the cross-TU passes, stable
 * ordering, and the text/JSON renderers. The JSON findings document
 * is byte-identical across runs — no timestamps, no host paths,
 * fully sorted — so it can be diffed against a committed baseline in
 * review (`bench/bench_compare.py --lint-report`); run telemetry
 * (files scanned, wall time, lines per module) rides along as an
 * optional `gauges` object outside that contract.
 */

#include "lint.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>

namespace fs = std::filesystem;

namespace decepticon::lint {

namespace {

bool
lintableFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".cpp" || ext == ".cxx" ||
           ext == ".hh" || ext == ".h" || ext == ".hpp";
}

/** All lintable files under root/<roots>, repo-relative with '/'
 *  separators, sorted — the walk order never depends on the
 *  filesystem's enumeration order. */
std::vector<std::string>
collectFiles(const std::string &root, const std::vector<std::string> &roots)
{
    std::vector<std::string> rel;
    for (const std::string &sub : roots) {
        const fs::path base = fs::path(root) / sub;
        if (!fs::exists(base))
            continue;
        for (const auto &entry : fs::recursive_directory_iterator(base)) {
            if (!entry.is_regular_file() || !lintableFile(entry.path()))
                continue;
            // Lexical: the walk yields root/<sub>/..., so no path
            // needs resolving (fs::relative would stat each one).
            rel.push_back(
                entry.path().lexically_relative(root).generic_string());
        }
    }
    std::sort(rel.begin(), rel.end());
    rel.erase(std::unique(rel.begin(), rel.end()), rel.end());
    return rel;
}

/** Gauge module of a repo-relative file: its directory, cut to at
 *  most two components (`src/obs/flight.hh` -> `src/obs`). */
std::string
moduleOf(const std::string &rel)
{
    const std::size_t slash = rel.rfind('/');
    if (slash == std::string::npos)
        return ".";
    const std::size_t second = rel.find('/', rel.find('/') + 1);
    return rel.substr(0, std::min(slash, second));
}

bool
violationLess(const Violation &a, const Violation &b)
{
    if (a.file != b.file)
        return a.file < b.file;
    if (a.line != b.line)
        return a.line < b.line;
    if (a.rule != b.rule)
        return a.rule < b.rule;
    return a.message < b.message;
}

void
jsonEscape(std::ostringstream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\n': os << "\\n"; break;
        case '\t': os << "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                const char *hex = "0123456789abcdef";
                os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
renderViolationList(std::ostringstream &os,
                    const std::vector<Violation> &list)
{
    os << "[";
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Violation &v = list[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"file\": ";
        jsonEscape(os, v.file);
        os << ", \"line\": " << v.line << ", \"rule\": ";
        jsonEscape(os, v.rule);
        os << ", \"message\": ";
        jsonEscape(os, v.message);
        if (!v.justification.empty()) {
            os << ", \"justification\": ";
            jsonEscape(os, v.justification);
        }
        os << "}";
    }
    os << (list.empty() ? "]" : "\n  ]");
}

} // namespace

void
finalize(Report &r)
{
    std::sort(r.violations.begin(), r.violations.end(), violationLess);
    std::sort(r.suppressed.begin(), r.suppressed.end(), violationLess);
    r.countsByRule.clear();
    for (const Violation &v : r.violations)
        ++r.countsByRule[v.rule];
}

FileSummary
analyzeFile(const SourceFile &f, const Config &cfg, ReachPass *reach)
{
    FileSummary s;
    s.path = f.path;
    // Suppressions move into the summary first: the rules consume
    // them (marking `used`) as they fire.
    s.lineSuppressions = f.lineSuppressions;
    s.fileSuppressions = f.fileSuppressions;

    TuIndex ix = buildTuIndex(f);
    checkFileRules(f, ix.toks, cfg, s);
    checkDataflow(f, ix, cfg, s);

    s.includes = quotedIncludes(f);
    s.functions = ix.lockInfo;
    if (reach)
        reach->add(f.path, f.isHeader(), std::move(ix));
    return s;
}

Report
runLint(const std::string &root, const Config &cfg)
{
    const auto t0 = std::chrono::steady_clock::now();
    Report report;

    std::vector<std::string> roots = cfg.scanRoots;
    for (const std::string &r : cfg.reachCallers)
        if (!underAny(r, cfg.scanRoots)) // walk each directory once
            roots.push_back(r);
    std::vector<std::string> files = collectFiles(root, roots);
    // src/ headers first: R11 knows every subject before it reads any
    // other caller. The summaries are put back in path order below.
    std::stable_partition(files.begin(), files.end(),
                          [](const std::string &rel) {
                              return hasPrefix(rel, "src/") &&
                                     isHeaderPath(rel);
                          });
    std::vector<FileSummary> sums;
    ReachPass reach;
    for (const std::string &rel : files) {
        SourceFile f;
        if (!loadSource((fs::path(root) / rel).string(), rel, f))
            continue;
        const bool caller = underAny(rel, cfg.reachCallers);
        if (!underAny(rel, cfg.scanRoots)) {
            // A read-only caller root: R11 reads its uses, and no
            // other rule runs there.
            TuIndex ix;
            ix.toks = tokenize(f);
            findFunctions(ix.toks, ix);
            reach.add(rel, f.isHeader(), std::move(ix));
            continue;
        }
        report.linesByModule[moduleOf(rel)] += f.raw.size();
        sums.push_back(analyzeFile(f, cfg, caller ? &reach : nullptr));
    }
    report.filesScanned = sums.size();
    std::sort(sums.begin(), sums.end(),
              [](const FileSummary &a, const FileSummary &b) {
                  return a.path < b.path;
              });

    // Per-file findings feed the report verbatim; the cross-TU passes
    // then run over every summary.
    for (const FileSummary &s : sums) {
        report.violations.insert(report.violations.end(),
                                 s.violations.begin(), s.violations.end());
        report.suppressed.insert(report.suppressed.end(),
                                 s.suppressed.begin(), s.suppressed.end());
    }
    checkIncludeGraph(sums, cfg, report);
    checkLockGraph(sums, cfg, report);
    reach.report(sums, report);
    for (const FileSummary &s : sums)
        checkUnusedSuppressions(s, report);

    finalize(report);
    report.durationMicros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    return report;
}

std::string
renderText(const Report &r)
{
    std::ostringstream os;
    for (const Violation &v : r.violations)
        os << v.file << ":" << v.line << ": [" << v.rule << "] "
           << v.message << "\n";
    os << r.filesScanned << " files scanned, " << r.violations.size()
       << " violation(s), " << r.suppressed.size() << " suppressed\n";
    return os.str();
}

std::string
renderJson(const Report &r, bool withGauges)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"tool\": \"decepticon-lint\",\n";
    os << "  \"schema_version\": 2,\n";
    os << "  \"files_scanned\": " << r.filesScanned << ",\n";
    if (withGauges) {
        os << "  \"gauges\": {\"lint.files_scanned\": " << r.filesScanned
           << ", \"lint.duration_micros\": " << r.durationMicros;
        for (const auto &[module, lines] : r.linesByModule) {
            os << ", ";
            jsonEscape(os, "lint.lines." + module);
            os << ": " << lines;
        }
        os << "},\n";
    }
    os << "  \"counts\": {";
    bool first = true;
    for (const auto &[rule, n] : r.countsByRule) {
        os << (first ? "" : ", ");
        jsonEscape(os, rule);
        os << ": " << n;
        first = false;
    }
    os << "},\n";
    os << "  \"violations\": ";
    renderViolationList(os, r.violations);
    os << ",\n  \"suppressed\": ";
    renderViolationList(os, r.suppressed);
    os << "\n}\n";
    return os.str();
}

} // namespace decepticon::lint
