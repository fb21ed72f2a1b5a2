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
 * Both run under [dataflow.paths].
 */

#include "lint.hh"

#include <algorithm>

namespace decepticon::lint {

namespace {

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

} // namespace

void
checkDataflow(const SourceFile &f, const TuIndex &ix, const Config &cfg,
              FileSummary &s)
{
    if (underAny(f.path, cfg.dataflowPaths)) {
        checkR7(f, ix, s);
        checkR8(f, ix, s);
    }
}

} // namespace decepticon::lint
