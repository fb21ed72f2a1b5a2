/**
 * @file
 * Dataflow rules for decepticon-lint v2, built on the symbol index:
 *
 *   R7  a shared Rng lvalue captured by reference (or an Rng pointer
 *       captured at all, or an init-capture aliasing one) into a
 *       parallelFor/parallelForRange task whose body uses it for
 *       anything except `.split(` — every lane would advance one
 *       generator, making each task's stream depend on lane timing.
 *       `rng.split(i)` is const and pure, so a body that only splits
 *       is the blessed pattern and stays quiet.
 *
 *   R8  `+=` / `-=` on a by-reference-captured float/double/Tensor
 *       accumulator inside a parallel task body: float addition does
 *       not commute bit-exactly, so the reduction value depends on
 *       the interleaving. Task-local accumulators and indexed
 *       per-slot writes (`out[i] = ...`) are untouched.
 *
 *   R10 a raw Tracer::beginSpan whose enclosing function either
 *       never calls endSpan, or can `return` after the span opens
 *       with no endSpan on that path. RAII (obs::Span) never
 *       tokenizes as beginSpan at the call site, so it is exempt by
 *       construction. Spans opened inside nested lambdas are outside
 *       this function-granularity check (use obs::span() there).
 *
 * R7/R8 run under [dataflow.paths]; R10 under [r10.paths] minus
 * [r10.allow_dirs] (the obs layer implements the tracer and owns raw
 * begin/end internally).
 */

#include "lint.hh"

#include <algorithm>

namespace decepticon::lint {

namespace {

bool
hasPrefix(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
underAny(const std::string &path, const std::vector<std::string> &dirs)
{
    for (const std::string &d : dirs)
        if (hasPrefix(path, d + "/") || path == d)
            return true;
    return false;
}

const std::string &
tokText(const std::vector<Token> &t, std::size_t i)
{
    static const std::string empty;
    return i < t.size() ? t[i].text : empty;
}

/** Is t[k] a use of `name` as an object (not a member of something
 *  else, not a direct call of a function with that name)? */
bool
isObjectUse(const std::vector<Token> &t, std::size_t k)
{
    const std::string &prev = k ? t[k - 1].text : tokText(t, t.size());
    if (prev == "." || prev == "::")
        return false; // member/qualified name of something else
    if (tokText(t, k + 1) == "(")
        return false; // direct call: a function name, not the lvalue
    return true;
}

/** Does t[k] (a use of an Rng name) immediately call .split( or
 *  ->split(? */
bool
isSplitCall(const std::vector<Token> &t, std::size_t k)
{
    if (tokText(t, k + 1) == "." && tokText(t, k + 2) == "split" &&
        tokText(t, k + 3) == "(")
        return true;
    if (tokText(t, k + 1) == "-" && tokText(t, k + 2) == ">" &&
        tokText(t, k + 3) == "split" && tokText(t, k + 4) == "(")
        return true;
    return false;
}

/** Shared-capture test: explicit [&name], or default [&] without a
 *  by-value override. */
bool
capturedByRef(const LambdaInfo &lam, const std::string &name)
{
    if (lam.refCaptures.count(name))
        return true;
    return lam.defaultRef && !lam.copyCaptures.count(name);
}

void
checkR7(const SourceFile &f, const TuIndex &ix, FileSummary &s)
{
    for (const LambdaInfo &lam : ix.lambdas) {
        if (!lam.parallelTask || lam.bodyEnd <= lam.bodyBegin)
            continue;
        // Task-local Rngs are the blessed pattern, not shared state.
        std::set<std::string> localRng, localPtr, localAcc;
        collectTypedDecls(ix.toks, lam.bodyBegin + 1, lam.bodyEnd,
                          localRng, localPtr, localAcc);

        // name -> what the body actually references (aliases resolve
        // to their own name: the body uses the alias).
        std::set<std::string> watch;
        for (const std::string &n : ix.rngNames)
            if (capturedByRef(lam, n) && !localRng.count(n))
                watch.insert(n);
        for (const std::string &n : ix.rngPointers)
            if ((capturedByRef(lam, n) || lam.copyCaptures.count(n) ||
                 lam.defaultCopy) &&
                !localPtr.count(n))
                watch.insert(n); // a copied pointer still aliases
        for (const auto &[alias, target] : lam.refAliases)
            if (ix.rngNames.count(target) || ix.rngPointers.count(target))
                watch.insert(alias);
        if (watch.empty())
            continue;

        for (const std::string &name : watch) {
            int firstUse = 0, uses = 0, splits = 0;
            for (std::size_t k = lam.bodyBegin + 1; k < lam.bodyEnd;
                 ++k) {
                if (!ix.toks[k].ident || ix.toks[k].text != name ||
                    !isObjectUse(ix.toks, k))
                    continue;
                ++uses;
                if (!firstUse)
                    firstUse = ix.toks[k].line;
                if (isSplitCall(ix.toks, k))
                    ++splits;
            }
            if (uses > 0 && splits == 0)
                emitLocal(
                    s, firstUse, "R7",
                    "shared Rng '" + name +
                        "' captured by reference into a parallel task "
                        "without .split(): every lane advances the same "
                        "generator, so each task's stream depends on "
                        "the interleaving — derive a per-task stream "
                        "with rng.split(task_index)");
        }
    }
    (void)f;
}

void
checkR8(const SourceFile &f, const TuIndex &ix, FileSummary &s)
{
    for (const LambdaInfo &lam : ix.lambdas) {
        if (!lam.parallelTask || lam.bodyEnd <= lam.bodyBegin)
            continue;
        std::set<std::string> localRng, localPtr, localAcc;
        collectTypedDecls(ix.toks, lam.bodyBegin + 1, lam.bodyEnd,
                          localRng, localPtr, localAcc);

        std::set<std::string> watch;
        for (const std::string &n : ix.floatAccums)
            if (capturedByRef(lam, n) && !localAcc.count(n))
                watch.insert(n);
        for (const auto &[alias, target] : lam.refAliases)
            if (ix.floatAccums.count(target))
                watch.insert(alias);
        if (watch.empty())
            continue;

        for (std::size_t k = lam.bodyBegin + 1; k + 2 < lam.bodyEnd;
             ++k) {
            if (!ix.toks[k].ident || !watch.count(ix.toks[k].text))
                continue;
            const std::string &prev = ix.toks[k - 1].text;
            if (prev == "." || prev == "::")
                continue;
            const std::string &op = ix.toks[k + 1].text;
            if ((op == "+" || op == "-") && ix.toks[k + 2].text == "=")
                emitLocal(
                    s, ix.toks[k].line, "R8",
                    "order-dependent reduction: '" + ix.toks[k].text +
                        " " + op +
                        "=' on a by-reference-captured float "
                        "accumulator inside a parallel task — float "
                        "addition does not commute bit-exactly; write "
                        "per-task partials and reduce serially in "
                        "queue order");
        }
    }
    (void)f;
}

void
checkR10(const SourceFile &f, const TuIndex &ix, const Config &cfg,
         FileSummary &s)
{
    if (!underAny(f.path, cfg.r10Paths) ||
        underAny(f.path, cfg.r10AllowDirs))
        return;

    for (const TuIndex::FnDef &fd : ix.functions) {
        if (fd.bodyEnd <= fd.bodyBegin)
            continue;
        // Nested lambda bodies are separate execution scopes: their
        // returns do not leave this function, and spans they open
        // are out of scope for this function-granularity check.
        std::vector<std::pair<std::size_t, std::size_t>> nested;
        for (const LambdaInfo &lam : ix.lambdas)
            if (lam.introTok > fd.bodyBegin && lam.bodyEnd < fd.bodyEnd)
                nested.push_back({lam.bodyBegin, lam.bodyEnd});
        auto inNested = [&](std::size_t k) {
            for (const auto &[b, e] : nested)
                if (k >= b && k <= e)
                    return true;
            return false;
        };

        std::vector<std::size_t> begins, ends, returns;
        for (std::size_t k = fd.bodyBegin; k < fd.bodyEnd; ++k) {
            if (!ix.toks[k].ident || inNested(k))
                continue;
            const std::string &x = ix.toks[k].text;
            if (x == "beginSpan" && tokText(ix.toks, k + 1) == "(")
                begins.push_back(k);
            else if (x == "endSpan" && tokText(ix.toks, k + 1) == "(")
                ends.push_back(k);
            else if (x == "return")
                returns.push_back(k);
        }
        if (begins.empty())
            continue;
        if (ends.empty()) {
            emitLocal(s, ix.toks[begins.front()].line, "R10",
                      "raw beginSpan is never ended in this function: "
                      "every path must call endSpan, or use the "
                      "obs::Span from obs::span() so unwinding closes "
                      "the span");
            continue;
        }
        const std::size_t first = begins.front();
        for (std::size_t r : returns) {
            if (r < first)
                continue;
            const bool closed =
                std::any_of(ends.begin(), ends.end(),
                            [&](std::size_t e) {
                                return e > first && e < r;
                            });
            if (!closed)
                emitLocal(
                    s, ix.toks[r].line, "R10",
                    "early return leaks the span opened by beginSpan "
                    "at line " +
                        std::to_string(ix.toks[first].line) +
                        ": call endSpan on this path or use the "
                        "obs::Span from obs::span()");
        }
    }
}

} // namespace

void
checkDataflow(const SourceFile &f, const TuIndex &ix, const Config &cfg,
              FileSummary &s)
{
    if (underAny(f.path, cfg.dataflowPaths)) {
        checkR7(f, ix, s);
        checkR8(f, ix, s);
    }
    checkR10(f, ix, cfg, s);
}

} // namespace decepticon::lint
