/**
 * @file
 * Per-file token rules for decepticon-lint: R1 (banned
 * nondeterminism), R3 (unordered-iteration hazard), R4 (raw-thread
 * ban), R5 (hygiene, including suppressions naming unknown rule
 * ids), R6 (console-I/O ban in library code).
 * All token-level checks run over the comment/string-blanked code
 * view, so `"std::rand()"` in a log string or a doc comment never
 * fires. The dataflow rules (R7, R8) live in dataflow.cc on top
 * of the symbol index; the cross-TU rules (R2, R9) run later over
 * every file's summary.
 */

#include "lint.hh"

#include <algorithm>
#include <cctype>

namespace decepticon::lint {

namespace {

/** Is token i qualified as std::X (directly or via nested ::)? Bare
 *  (unqualified) uses also count — `using namespace std` exists — but
 *  `foo::X` / `obj.X` / `obj->X` do not. */
bool
stdQualifiedOrBare(const std::vector<Token> &t, std::size_t i)
{
    if (i >= 2 && t[i - 1].text == "::")
        return t[i - 2].text == "std";
    if (i >= 1 && (t[i - 1].text == "." || t[i - 1].text == ">"))
        return false; // member access (`->` tokenizes as `-` `>`)
    return true;
}

bool
isUnorderedContainer(const std::string &id)
{
    return id == "unordered_map" || id == "unordered_set" ||
           id == "unordered_multimap" || id == "unordered_multiset";
}

// --- R1: banned nondeterminism ------------------------------------

void
checkR1(const SourceFile &f, const std::vector<Token> &t,
        const Config &cfg, FileSummary &s)
{
    if (cfg.r1AllowFiles.count(f.path))
        return;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!t[i].ident)
            continue;
        const std::string &id = t[i].text;
        if ((id == "rand" || id == "srand") && tokText(t, i + 1) == "(" &&
            stdQualifiedOrBare(t, i)) {
            emitLocal(s, t[i].line, "R1",
                      "call to " + id +
                          "(): use util::Rng (seed-derived) instead");
        } else if (id == "random_device" && stdQualifiedOrBare(t, i)) {
            emitLocal(s, t[i].line, "R1",
                      "std::random_device is entropy, not "
                      "reproducible: derive seeds via util::Rng::split");
        } else if (id == "time" && tokText(t, i + 1) == "(" &&
                   stdQualifiedOrBare(t, i)) {
            const std::string &arg = tokText(t, i + 2);
            if (arg == ")" || ((arg == "0" || arg == "NULL" ||
                                arg == "nullptr") &&
                               tokText(t, i + 3) == ")")) {
                emitLocal(s, t[i].line, "R1",
                          "wall-clock time() call: timestamps must "
                          "come from obs::SteadyClock");
            }
        } else if ((id == "steady_clock" || id == "system_clock" ||
                    id == "high_resolution_clock") &&
                   tokText(t, i + 1) == "::" &&
                   tokText(t, i + 2) == "now") {
            emitLocal(s, t[i].line, "R1",
                      id + "::now() outside the clock shim: inject "
                           "obs::Clock so tests can fake time");
        }
    }
}

// --- R3: unordered-iteration hazard -------------------------------

void
checkR3(const SourceFile &f, const std::vector<Token> &t,
        const Config &cfg, FileSummary &s)
{
    if (!underAny(f.path, cfg.r3Paths))
        return;

    // Pass 1: names declared with an unordered container type
    // anywhere in this file (declaration and iteration usually share
    // a file; member declarations in a paired header are out of
    // reach of a single-TU scan and are caught by the token fallback
    // below when the range expression names the container type).
    std::set<std::string> unorderedNames;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!t[i].ident || !isUnorderedContainer(t[i].text))
            continue;
        std::size_t k = skipTemplateArgs(t, i + 1);
        if (k == i + 1)
            continue; // no template args in sight
        // `std::unordered_map<K, V> name` — possibly with &, *, or
        // qualifiers between.
        while (tokText(t, k) == "&" || tokText(t, k) == "*")
            ++k;
        if (k < t.size() && t[k].ident && t[k].text != "const")
            unorderedNames.insert(t[k].text);
    }

    // Pass 2: range-for statements whose range expression names a
    // declared-unordered variable or an unordered container type.
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!t[i].ident || t[i].text != "for" || tokText(t, i + 1) != "(")
            continue;
        int depth = 0;
        std::size_t colon = 0, close = 0;
        for (std::size_t k = i + 1; k < t.size(); ++k) {
            if (t[k].text == "(") {
                ++depth;
            } else if (t[k].text == ")") {
                if (--depth == 0) {
                    close = k;
                    break;
                }
            } else if (t[k].text == ":" && depth == 1 && colon == 0) {
                colon = k;
            }
        }
        if (colon == 0 || close == 0)
            continue; // classic for, or unterminated
        for (std::size_t k = colon + 1; k < close; ++k) {
            if (!t[k].ident)
                continue;
            if (unorderedNames.count(t[k].text) ||
                isUnorderedContainer(t[k].text)) {
                emitLocal(
                    s, t[i].line, "R3",
                    "range-for over unordered container '" + t[k].text +
                        "': iteration order is not deterministic "
                        "(sort keys, use std::map, or justify with "
                        "`// lint: ordered-ok <why>`)");
                break;
            }
        }
    }
}

// --- R4: raw-thread ban -------------------------------------------

void
checkR4(const SourceFile &f, const std::vector<Token> &t,
        const Config &cfg, FileSummary &s)
{
    if (underAny(f.path, cfg.r4AllowDirs))
        return;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!t[i].ident)
            continue;
        const std::string &id = t[i].text;
        const bool stdQual = i >= 2 && t[i - 1].text == "::" &&
                             t[i - 2].text == "std";
        if ((id == "thread" || id == "jthread") && stdQual &&
            tokText(t, i + 1) != "::") {
            // std::thread::id etc. are types, not spawns — allowed.
            emitLocal(s, t[i].line, "R4",
                      "raw std::" + id +
                          ": all parallelism goes through "
                          "sched::ThreadPool (deterministic, "
                          "DECEPTICON_THREADS-sized)");
        } else if (id == "async" && stdQual) {
            emitLocal(s, t[i].line, "R4",
                      "std::async spawns unmanaged threads: use "
                      "sched::parallelFor / ThreadPool");
        }
    }
    for (std::size_t li = 0; li < f.code.size(); ++li) {
        const std::string &line = f.code[li];
        const std::size_t h = line.find('#');
        if (h == std::string::npos)
            continue;
        if (line.find("pragma", h) != std::string::npos &&
            line.find(" omp", h) != std::string::npos) {
            emitLocal(s, static_cast<int>(li + 1), "R4",
                      "raw `#pragma omp`: OpenMP scheduling is not "
                      "deterministic across hosts; use sched::");
        }
    }
}

// --- R5: hygiene ---------------------------------------------------

void
checkR5(const SourceFile &f, const std::vector<Token> &t,
        const Config &cfg, FileSummary &s)
{
    // (a) headers need an include guard: `#pragma once` or a leading
    // `#ifndef X` / `#define X` pair.
    if (f.isHeader()) {
        bool guarded = false;
        std::string ifndefName;
        for (std::size_t li = 0; li < f.code.size() && !guarded; ++li) {
            const std::string &line = f.code[li];
            const std::size_t h = line.find('#');
            if (h == std::string::npos)
                continue;
            if (line.find("pragma", h) != std::string::npos &&
                line.find("once", h) != std::string::npos) {
                guarded = true;
            } else if (ifndefName.empty()) {
                const std::size_t p = line.find("ifndef", h);
                if (p != std::string::npos) {
                    std::size_t b = p + 6;
                    while (b < line.size() &&
                           std::isspace(
                               static_cast<unsigned char>(line[b])))
                        ++b;
                    std::size_t e = b;
                    while (e < line.size() &&
                           (std::isalnum(
                                static_cast<unsigned char>(line[e])) ||
                            line[e] == '_'))
                        ++e;
                    ifndefName = line.substr(b, e - b);
                } else {
                    break; // first directive is neither — unguarded
                }
            } else if (line.find("define", h) != std::string::npos &&
                       line.find(ifndefName, h) != std::string::npos) {
                guarded = true;
            } else {
                break; // #ifndef not followed by matching #define
            }
        }
        if (!guarded)
            emitLocal(s, 1, "R5",
                      "header without an include guard (#pragma "
                      "once or #ifndef/#define pair)");
    }

    // (b) getenv outside the config shims.
    if (!cfg.r5EnvAllowFiles.count(f.path)) {
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].ident && t[i].text == "getenv" &&
                tokText(t, i + 1) == "(" && stdQualifiedOrBare(t, i)) {
                emitLocal(s, t[i].line, "R5",
                          "getenv outside the config shims: route "
                          "env knobs through the owning subsystem's "
                          "spec parser");
            }
        }
    }

    // (c) TODO/FIXME must carry an issue tag (#123 or ISSUE-...).
    for (std::size_t li = 0; li < f.comments.size(); ++li) {
        const std::string &com = f.comments[li];
        const std::size_t at = std::min(com.find("TODO"), com.find("FIXME"));
        if (at == std::string::npos)
            continue;
        bool tagged = com.find("ISSUE") != std::string::npos;
        for (std::size_t k = 0; !tagged && k + 1 < com.size(); ++k)
            if (com[k] == '#' &&
                std::isdigit(static_cast<unsigned char>(com[k + 1])))
                tagged = true;
        if (!tagged)
            emitLocal(s, static_cast<int>(li + 1), "R5",
                      "TODO/FIXME without an issue tag (add "
                      "`(#N)` or `ISSUE-N` so it is trackable)");
    }

    // (d) suppressions naming a rule id the tool does not have are an
    // error, never silently inert: a typo'd id would otherwise look
    // like a working suppression while the real violation escapes.
    for (const auto &[line, badRule] : f.badSuppressions) {
        emitLocal(s, line, "R5",
                  "suppression names unknown rule id '" + badRule +
                      "' (valid ids are R1..R9, R11) — fix the id or "
                      "remove the comment");
    }
}

// --- R6: console I/O outside obs/report code ----------------------

void
checkR6(const SourceFile &f, const std::vector<Token> &t,
        const Config &cfg, FileSummary &s)
{
    if (!underAny(f.path, cfg.r6Paths) ||
        underAny(f.path, cfg.r6AllowDirs))
        return;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!t[i].ident)
            continue;
        const std::string &id = t[i].text;
        if ((id == "cout" || id == "cerr" || id == "clog") &&
            stdQualifiedOrBare(t, i)) {
            emitLocal(s, t[i].line, "R6",
                      "std::" + id +
                          " in library code: route diagnostics "
                          "through obs:: (metrics/trace/flight) or "
                          "write to a caller-provided stream");
        } else if ((id == "printf" || id == "fprintf" ||
                    id == "puts" || id == "fputs") &&
                   tokText(t, i + 1) == "(" &&
                   stdQualifiedOrBare(t, i)) {
            // snprintf/sprintf format into buffers, not the console,
            // and tokenize as distinct identifiers — not matched.
            emitLocal(s, t[i].line, "R6",
                      "call to " + id +
                          "(): console diagnostics are banned in "
                          "library code; use obs:: or return "
                          "strings/streams");
        }
    }
}

} // namespace

void
checkFileRules(const SourceFile &f, const std::vector<Token> &toks,
               const Config &cfg, FileSummary &s)
{
    checkR1(f, toks, cfg, s);
    checkR3(f, toks, cfg, s);
    checkR4(f, toks, cfg, s);
    checkR5(f, toks, cfg, s);
    checkR6(f, toks, cfg, s);
}

} // namespace decepticon::lint
