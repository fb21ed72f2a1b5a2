/**
 * @file
 * decepticon-lint: in-repo static analysis enforcing the invariants
 * the reproduction rests on. The runtime determinism suite proves
 * bit-identity empirically; this tool makes the same invariants cheap
 * and exhaustive at rest, before a single test runs:
 *
 *   R1  banned nondeterminism — std::rand/srand, random_device,
 *       argless time(), and steady/system/high_resolution_clock::now
 *       outside the allowlisted clock shim and bench timing harness.
 *   R2  layering — the src/ #include graph must respect the declared
 *       subsystem partial order (tools/lint/layers.toml) and be
 *       acyclic at file granularity.
 *   R3  unordered-iteration hazard — range-for over
 *       std::unordered_{map,set,multimap,multiset} in files tagged
 *       deterministic, unless the line carries a justified
 *       `// lint: ordered-ok <why>`.
 *   R4  raw-thread ban — std::thread/std::jthread/std::async and
 *       `#pragma omp` anywhere except src/sched/ (all parallelism
 *       goes through the deterministic pool).
 *   R5  hygiene — headers without an include guard, getenv outside
 *       the config shims, TODO/FIXME without an issue tag, stale
 *       (unused) suppression comments, and suppressions naming a
 *       rule id the tool does not know.
 *   R6  console-I/O ban — std::cout/cerr/clog and printf-family
 *       calls in library code ([r6.paths], minus [r6.allow_dirs]):
 *       diagnostics go through obs:: (metrics / trace / flight
 *       recorder) and renderers write to caller-provided streams, so
 *       library output stays capturable and deterministic.
 *
 * v2 adds a lightweight symbol indexer (function definitions, lambda
 * scopes with parsed capture lists, call sites), a cross-TU call
 * graph (name + arity matching layered on the include graph), and
 * the rules on top of it:
 *
 *   R7  shared-Rng-into-parallel-task — an Rng lvalue captured by
 *       reference (or a captured Rng pointer) into a
 *       parallelFor/parallelForRange task whose body uses it for
 *       anything but `.split(`: every lane would advance the same
 *       generator, making the stream interleaving-dependent.
 *   R8  order-dependent float reduction — `+=`/`-=` on a
 *       by-reference-captured float/double/Tensor accumulator inside
 *       a parallel task body: float addition does not commute
 *       bit-exactly, so the sum depends on lane timing.
 *   R9  lock-order DAG — per-function lock_guard/unique_lock/
 *       scoped_lock acquisition sequences, propagated one level
 *       through the cross-TU call graph; a cycle in the resulting
 *       lock-order graph is a potential deadlock. A multi-mutex
 *       std::scoped_lock acquires atomically and contributes no
 *       internal edges.
 *   R11 reached only from tests — a function or class declared in a
 *       src/ header whose name no [reach.callers] file (src, bench,
 *       examples, and the read-only tools/obsview and campaignbench)
 *       uses outside declarations and definitions. Matching is by
 *       name only, so it can miss dead code but never flags reached
 *       code. (R10 is retired with the Tracer.)
 *
 * Deliberately not built on libclang: a deterministic token/line
 * scanner plus the include-graph/symbol passes cover every rule
 * above, have zero dependencies, and produce byte-identical reports
 * across runs and hosts. Every run is one cold pass: per-file rules
 * distill a FileSummary per file, then the cross-TU passes (R2, R9,
 * R11, stale suppressions) run over all summaries.
 *
 * Suppression syntax (justification text is mandatory — a bare
 * suppression does not suppress; rule ids R1–R9 and R11 are valid and
 * any other id is itself an R5 violation):
 *
 *   code();            // lint: suppress(R4) tests the pool itself
 *   // lint: ordered-ok keys re-sorted downstream   (alias: R3)
 *   // lint-file: suppress(R1) this file IS the clock shim
 *
 * A line suppression on a comment-only line applies to the next line.
 */

#ifndef DECEPTICON_TOOLS_LINT_LINT_HH
#define DECEPTICON_TOOLS_LINT_LINT_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace decepticon::lint {

/** Parsed tools/lint/layers.toml (a deliberately tiny TOML subset:
 *  `[section]` headers, `key = value` pairs, and bare-value list
 *  entries; `#` starts a comment). */
struct Config
{
    /** [layers] module -> rank. An edge a -> b is legal iff
     *  rank(a) > rank(b) (or a == b). */
    std::map<std::string, int> layerOf;
    /** [r2.allow_edges] "from -> to" module pairs exempt from the
     *  rank check. */
    std::set<std::pair<std::string, std::string>> allowEdges;
    /** [r1.allow_files] repo-relative files where wall-clock /
     *  entropy calls are the point (clock shim, bench timing). */
    std::set<std::string> r1AllowFiles;
    /** [r3.paths] path prefixes tagged deterministic. */
    std::vector<std::string> r3Paths;
    /** [r4.allow_dirs] directory prefixes where raw threads are
     *  allowed (the scheduler implementation). */
    std::vector<std::string> r4AllowDirs;
    /** [r5.env_allow_files] the config shims allowed to getenv. */
    std::set<std::string> r5EnvAllowFiles;
    /** [r6.paths] path prefixes where console I/O is banned. */
    std::vector<std::string> r6Paths;
    /** [r6.allow_dirs] directory prefixes exempt from R6 (the obs
     *  exporters and report renderers that own process output). */
    std::vector<std::string> r6AllowDirs;
    /** [dataflow.paths] path prefixes where the parallel-task
     *  dataflow rules (R7, R8) run — the deterministic tree. */
    std::vector<std::string> dataflowPaths;
    /** [r9.paths] path prefixes contributing lock acquisitions and
     *  call-graph edges to the lock-order DAG. */
    std::vector<std::string> r9Paths;
    /** [scan.roots] directories walked under --root. */
    std::vector<std::string> scanRoots;
    /** [reach.callers] directories whose code counts as reaching a
     *  src/ header symbol (R11). Those outside [scan.roots] are read
     *  only: no other rule runs there. */
    std::vector<std::string> reachCallers;
};

/** Parse a config file. Returns false and sets *error on failure. */
bool loadConfig(const std::string &path, Config &out, std::string *error);

bool hasPrefix(const std::string &s, const std::string &prefix);

/** `s` without leading and trailing whitespace. */
std::string trim(const std::string &s);

/** True if `path` is one of `dirs` or lies under one of them. */
bool underAny(const std::string &path, const std::vector<std::string> &dirs);

struct Violation
{
    std::string file; ///< repo-relative, '/' separators
    int line = 0;
    std::string rule; ///< "R1".."R9", "R11"
    std::string message;
    std::string justification; ///< non-empty only for suppressed hits
};

struct Report
{
    std::vector<Violation> violations; ///< unsuppressed — these fail CI
    std::vector<Violation> suppressed; ///< visible in review via baseline
    std::size_t filesScanned = 0;
    std::int64_t durationMicros = 0; ///< wall time of the lint run
    std::map<std::string, int> countsByRule; ///< unsuppressed, per rule
    /** Raw line count per module: the file's directory, cut to at
     *  most two components (`src/obs`, `tests`). */
    std::map<std::string, std::size_t> linesByModule;
};

/** One suppression comment, matched to uses as rules fire. */
struct Suppression
{
    std::string rule;          ///< "R1".."R9", "R11"
    std::string justification; ///< text after the rule token, trimmed
    int line = 0;              ///< line the suppression targets
    bool used = false;         ///< consumed by some rule hit
};

/** A loaded source file: raw lines plus a comment/string-blanked code
 *  view (same line structure), comment text per line, and parsed
 *  suppressions. */
struct SourceFile
{
    std::string path;                  ///< repo-relative
    std::vector<std::string> raw;      ///< verbatim lines
    std::vector<std::string> code;     ///< literals/comments blanked
    std::vector<std::string> comments; ///< comment text per line
    std::vector<Suppression> lineSuppressions;
    std::vector<Suppression> fileSuppressions;
    /** Suppressions naming an unknown rule id: (line, bad id). */
    std::vector<std::pair<int, std::string>> badSuppressions;

    bool isHeader() const;
};

bool isHeaderPath(const std::string &path);

/** Load and pre-process one file. Returns false if unreadable. */
bool loadSource(const std::string &absPath, const std::string &relPath,
                SourceFile &out);

// --- token / symbol layer -----------------------------------------

struct Token
{
    std::string text;
    int line = 0; ///< 1-based
    bool ident = false;
};

/** Tokenize the blanked code view into identifiers and punctuation.
 *  `::` is one token; every other punctuation char is its own. */
std::vector<Token> tokenize(const SourceFile &f);

/** t[i].text, or "" past the end. */
const std::string &tokText(const std::vector<Token> &t, std::size_t i);

/** Keywords that may precede `(` or `{` but never name a function. */
bool isKeyword(const std::string &s);

/** Skip a balanced <...> template argument list starting at t[i]
 *  (which must be "<"). Returns one past the closing ">", or i if
 *  the list never closes before a ';'. */
std::size_t skipTemplateArgs(const std::vector<Token> &t, std::size_t i);

/** A lambda expression: capture semantics plus body token range. */
struct LambdaInfo
{
    std::size_t introTok = 0;              ///< index of '['
    std::size_t bodyBegin = 0, bodyEnd = 0; ///< '{' .. matching '}'
    int line = 0;
    bool defaultRef = false;  ///< [&]
    bool defaultCopy = false; ///< [=]
    std::set<std::string> refCaptures;  ///< [&x]
    std::set<std::string> copyCaptures; ///< [x]
    /** Init-captures aliasing an outer name: alias -> outer name
     *  (e.g. `[&r = rng]` or `[p = &rng]` record r/p -> rng, both
     *  with reference semantics). */
    std::map<std::string, std::string> refAliases;
    bool parallelTask = false; ///< argument to parallelFor(Range)
};

/** An intra-function lock-order edge: `from` held while acquiring
 *  `to` (names are unqualified here; the call-graph pass qualifies
 *  them with the file path). */
struct LockEdge
{
    std::string from, to;
    int line = 0;
};

/** A call made while holding at least one lock. */
struct HeldCall
{
    std::string callee;
    int arity = 0;
    int line = 0;
    std::vector<std::string> held; ///< lock names held at the call
};

/** Per-function summary feeding the cross-TU lock pass. */
struct FunctionInfo
{
    std::string name; ///< unqualified (last identifier)
    int arity = 0;
    int line = 0;
    std::vector<std::string> acquired; ///< locks acquired in body, dedup
    std::vector<LockEdge> edges;       ///< intra-function order edges
    std::vector<HeldCall> heldCalls;
};

/** Full per-TU index; the subset later passes need is distilled
 *  into FileSummary. */
struct TuIndex
{
    std::vector<Token> toks;
    /** Function definitions with body token ranges, for the
     *  dataflow rules that need to walk bodies. */
    struct FnDef
    {
        std::string name;
        int arity = 0;
        int line = 0;
        std::size_t nameTok = 0;                ///< index of `name`
        std::size_t bodyBegin = 0, bodyEnd = 0; ///< '{' .. '}'
    };
    std::vector<FnDef> functions;
    std::vector<LambdaInfo> lambdas;
    std::set<std::string> rngNames;    ///< Rng lvalues declared in TU
    std::set<std::string> rngPointers; ///< Rng* declared in TU
    std::set<std::string> floatAccums; ///< float/double/Tensor lvalues
    std::vector<FunctionInfo> lockInfo; ///< per-function R9 summaries
};

/** Build the symbol index for one file (symbols.cc). */
TuIndex buildTuIndex(const SourceFile &f);

/** Append the function definitions in `t` to out.functions. */
void findFunctions(const std::vector<Token> &t, TuIndex &out);

/** Collect `Rng` / float/double/Tensor lvalue declarations in a
 *  token range. The dataflow rules call this on lambda bodies to
 *  subtract task-local declarations (a per-task `Rng local` or
 *  `double partial` is exactly the blessed pattern). */
void collectTypedDecls(const std::vector<Token> &toks, std::size_t begin,
                       std::size_t end, std::set<std::string> &rngNames,
                       std::set<std::string> &rngPtrs,
                       std::set<std::string> &accums);

/** One quoted #include. */
struct Include
{
    std::string target; ///< path as written, e.g. "util/rng.hh"
    int line = 0;
};

/** Quoted includes from the code view. */
std::vector<Include> quotedIncludes(const SourceFile &f);

// --- per-file summary ----------------------------------------------

/** Everything later passes need from a file: per-file findings plus
 *  the inputs to the cross-TU passes. */
struct FileSummary
{
    std::string path;
    std::vector<Suppression> lineSuppressions;
    std::vector<Suppression> fileSuppressions;
    std::vector<Violation> violations; ///< per-file rules, unsuppressed
    std::vector<Violation> suppressed; ///< per-file rules, suppressed
    std::vector<Include> includes;
    std::vector<FunctionInfo> functions; ///< R9 inputs
};

/** Record a per-file rule hit: consumes a matching justified
 *  suppression or appends to s.violations. */
void emitLocal(FileSummary &s, int line, const std::string &rule,
               const std::string &message);

/** Record a cross-TU rule hit: consumes a matching justified
 *  suppression (appending to out.suppressed) or appends to
 *  out.violations. */
void emitCross(FileSummary &s, int line, const std::string &rule,
               const std::string &message, Report &out);

/** One caller file as R11 reads it (reach.cc). */
struct ReachFile
{
    /** A function or class declared in a src/ header: a subject. */
    struct Decl
    {
        std::string name;
        int line = 0;
    };
    std::string path;
    std::vector<Token> toks;
    /** Per token: a name being declared or defined, never a use. */
    std::vector<bool> declSite;
    std::vector<Decl> decls; ///< empty outside src/ headers
};

/** R11 over one run (reach.cc). runLint feeds it the src/ headers
 *  first, so every subject is known before any other caller file
 *  arrives and no caller's tokens outlive its own visit. */
class ReachPass
{
  public:
    static constexpr std::size_t kFilterKeys = 1 << 14;

    /** Index one caller file (ix's tokens are taken) and mark the
     *  subject names it uses. */
    void add(const std::string &path, bool header, TuIndex &&ix);
    /** Flag each subject whose name no caller file used outside
     *  declarations and definitions. */
    void report(std::vector<FileSummary> &sums, Report &out);

  private:
    void markUses(const ReachFile &rf);
    void seal();

    std::vector<ReachFile> headers_; ///< src/ headers, until sealed
    /** Subject name -> used by some caller. */
    std::unordered_map<std::string, bool> names_;
    /** Per filterKey: subjects with that key no caller used yet. Most
     *  tokens find 0 here and skip the hash lookup; a key drops to 0
     *  once its subjects are all used. */
    std::vector<std::uint32_t> unusedByKey_ =
        std::vector<std::uint32_t>(kFilterKeys, 0);
    bool sealed_ = false;
};

/** Run every per-file rule (R1, R3–R8) and distill the summary; a
 *  caller file (`reach` non-null) is also handed to R11. */
FileSummary analyzeFile(const SourceFile &f, const Config &cfg,
                        ReachPass *reach = nullptr);

/** Token-level rules R1, R3, R4, R5, R6 (rules.cc). */
void checkFileRules(const SourceFile &f, const std::vector<Token> &toks,
                    const Config &cfg, FileSummary &s);

/** Dataflow rules R7, R8 over the symbol index (dataflow.cc). */
void checkDataflow(const SourceFile &f, const TuIndex &ix,
                   const Config &cfg, FileSummary &s);

/** R2 (layer ranks + file-level cycles) over all summaries. */
void checkIncludeGraph(std::vector<FileSummary> &sums, const Config &cfg,
                       Report &out);

/** R9: build the lock-order graph (intra-function edges plus one
 *  level of call-graph propagation) and report cycles
 *  (callgraph.cc). */
void checkLockGraph(std::vector<FileSummary> &sums, const Config &cfg,
                    Report &out);

/** After all rules ran: flag stale suppressions (R5). */
void checkUnusedSuppressions(const FileSummary &s, Report &out);

// --- orchestration / rendering ------------------------------------

/** Walk cfg.scanRoots under root, run every rule, sort + count. */
Report runLint(const std::string &root, const Config &cfg);

/** Deterministic ordering + counts (runLint calls this). */
void finalize(Report &r);

/** `file:line: [rule] message` lines, one per violation. */
std::string renderText(const Report &r);

/** Machine-readable report; byte-identical across runs when
 *  withGauges is false (the canonical findings document). With
 *  gauges, a `gauges` object adds lint.files_scanned,
 *  lint.duration_micros and one lint.lines.<module> per module (run
 *  telemetry — not part of the byte-identity contract). */
std::string renderJson(const Report &r, bool withGauges = false);

} // namespace decepticon::lint

#endif // DECEPTICON_TOOLS_LINT_LINT_HH
