/**
 * @file
 * R2 for decepticon-lint: build the quoted-#include graph across
 * src/, enforce the declared subsystem partial order (an edge
 * a -> b is legal iff rank(a) > rank(b) or a == b), and reject
 * file-level include cycles. Only files under src/ contribute
 * edges — tests/bench/examples sit above every layer by
 * construction. Runs over the per-file summaries of every scanned
 * file, so a layering regression introduced by a different file is
 * always seen.
 */

#include "lint.hh"

#include <algorithm>
#include <functional>

namespace decepticon::lint {

std::vector<Include>
quotedIncludes(const SourceFile &f)
{
    std::vector<Include> out;
    for (std::size_t li = 0; li < f.code.size(); ++li) {
        const std::string &s = f.code[li];
        const std::size_t h = s.find('#');
        if (h == std::string::npos ||
            s.find("include", h) == std::string::npos)
            continue;
        const std::size_t q1 = s.find('"', h);
        if (q1 == std::string::npos)
            continue;
        const std::size_t q2 = s.find('"', q1 + 1);
        if (q2 == std::string::npos)
            continue;
        // The code view blanks string contents; read from raw.
        out.push_back({f.raw[li].substr(q1 + 1, q2 - q1 - 1),
                       static_cast<int>(li + 1)});
    }
    return out;
}

namespace {

/**
 * Subsystem of a src-relative path. Longest declared prefix wins, so
 * a nested module declared in layers.toml (e.g. "fingerprint/index")
 * ranks independently of its parent directory; undeclared
 * subdirectories fold into the first path segment as before.
 */
std::string
moduleOf(const std::string &srcRelPath, const Config &cfg)
{
    const std::size_t slash = srcRelPath.find('/');
    if (slash == std::string::npos)
        return std::string();
    const std::size_t slash2 = srcRelPath.find('/', slash + 1);
    if (slash2 != std::string::npos) {
        const std::string nested = srcRelPath.substr(0, slash2);
        if (cfg.layerOf.count(nested))
            return nested;
    }
    return srcRelPath.substr(0, slash);
}

} // namespace

void
checkIncludeGraph(std::vector<FileSummary> &sums, const Config &cfg,
                  Report &out)
{
    // Index of src-relative path -> position in `sums` for cycle
    // walking, plus the per-file adjacency built as we rank-check.
    std::map<std::string, std::size_t> bySrcPath;
    for (std::size_t i = 0; i < sums.size(); ++i) {
        const std::string &p = sums[i].path;
        if (p.rfind("src/", 0) == 0)
            bySrcPath[p.substr(4)] = i;
    }

    std::map<std::string, std::vector<std::pair<std::string, int>>> adj;
    for (FileSummary &s : sums) {
        if (s.path.rfind("src/", 0) != 0)
            continue;
        const std::string fromRel = s.path.substr(4);
        const std::string fromMod = moduleOf(fromRel, cfg);
        for (const Include &inc : s.includes) {
            const std::string toMod = moduleOf(inc.target, cfg);
            if (toMod.empty() || !cfg.layerOf.count(toMod))
                continue; // not a subsystem header (e.g. local file)
            if (bySrcPath.count(inc.target))
                adj[fromRel].push_back({inc.target, inc.line});
            if (!cfg.layerOf.count(fromMod)) {
                emitCross(s, inc.line, "R2",
                          "module '" + fromMod +
                              "' is not declared in the layers "
                              "config — add it to layers.toml",
                          out);
                continue;
            }
            if (fromMod == toMod)
                continue;
            if (cfg.allowEdges.count({fromMod, toMod}))
                continue;
            const int fromRank = cfg.layerOf.at(fromMod);
            const int toRank = cfg.layerOf.at(toMod);
            if (fromRank <= toRank) {
                emitCross(
                    s, inc.line, "R2",
                    "layering violation: " + fromMod + " (layer " +
                        std::to_string(fromRank) + ") must not include " +
                        toMod + " (layer " + std::to_string(toRank) +
                        ") — the subsystem DAG flows strictly downward",
                    out);
            }
        }
    }

    // File-level cycle detection (include guards make a cycle build,
    // but the dependency knot is real and always a design bug).
    // Deterministic: files visited in sorted order, includes in file
    // order; the first cycle found is reported once.
    enum class Mark
    {
        White,
        Grey,
        Black
    };
    std::map<std::string, Mark> mark;
    std::vector<std::string> stack;
    std::vector<std::string> cycle;

    std::function<bool(const std::string &)> dfs =
        [&](const std::string &node) -> bool {
        mark[node] = Mark::Grey;
        stack.push_back(node);
        auto it = adj.find(node);
        if (it != adj.end()) {
            for (const auto &[next, line] : it->second) {
                (void)line;
                if (mark[next] == Mark::Grey) {
                    const auto at =
                        std::find(stack.begin(), stack.end(), next);
                    cycle.assign(at, stack.end());
                    cycle.push_back(next);
                    return true;
                }
                if (mark[next] == Mark::White && dfs(next))
                    return true;
            }
        }
        stack.pop_back();
        mark[node] = Mark::Black;
        return false;
    };

    for (const auto &[path, idx] : bySrcPath) {
        (void)idx;
        if (mark[path] == Mark::White && dfs(path)) {
            std::string desc = "include cycle: ";
            for (std::size_t i = 0; i < cycle.size(); ++i) {
                if (i)
                    desc += " -> ";
                desc += cycle[i];
            }
            FileSummary &s = sums[bySrcPath.at(cycle.front())];
            emitCross(s, 1, "R2", desc, out);
            break;
        }
    }
}

} // namespace decepticon::lint
