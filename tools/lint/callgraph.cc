/**
 * @file
 * R9 for decepticon-lint: lock-order discipline across the repo.
 *
 * Each file's symbol pass distills, per function, the sequence of
 * lock_guard/unique_lock/scoped_lock acquisitions (intra-function
 * order edges: `from` held while acquiring `to`) and the calls made
 * while at least one lock is held. This pass qualifies every lock
 * name with its file path (same-named members like `mu_` in
 * different classes must not merge into one node), adds the
 * intra-function edges, then propagates ONE level through a cross-TU
 * call graph: a call made while holding H, resolved by exact
 * name + arity to a function definition that acquires L, contributes
 * the edge H -> L. Resolution is deliberately conservative — a
 * callee candidate must live in the same file, the same directory,
 * the caller's quoted-include closure, or be the source sibling of a
 * header in that closure — so an unrelated same-named function in a
 * distant subsystem cannot fabricate an edge.
 *
 * A strongly-connected component of two or more nodes in the
 * resulting lock-order graph means two code paths acquire the same
 * mutexes in opposite orders: a potential deadlock. A multi-mutex
 * std::scoped_lock acquires atomically and contributed no internal
 * edges upstream, so the blessed fix pattern stays quiet.
 *
 * Runs over the per-file summaries of every scanned file, so an
 * ordering regression introduced by a different file is always
 * seen.
 */

#include "lint.hh"

#include <algorithm>
#include <functional>

namespace decepticon::lint {

namespace {

std::string
dirOf(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash);
}

std::string
stemOf(const std::string &path)
{
    const std::size_t dot = path.rfind('.');
    return dot == std::string::npos ? path : path.substr(0, dot);
}

/** A lock-order edge in the qualified graph. */
struct Edge
{
    std::string to;
    std::size_t sumIdx = 0; ///< summary owning the edge (for anchor)
    int line = 0;
    std::string via; ///< non-empty for call-propagated edges
};

} // namespace

void
checkLockGraph(std::vector<FileSummary> &sums, const Config &cfg,
               Report &out)
{
    if (cfg.r9Paths.empty())
        return;

    // Which summaries participate, and how include targets resolve
    // to summary paths (targets are written src-relative, repo
    // relative, or relative to the including file's directory).
    std::map<std::string, std::size_t> byPath;
    for (std::size_t i = 0; i < sums.size(); ++i)
        byPath[sums[i].path] = i;
    auto resolveInclude = [&](const std::string &fromPath,
                              const std::string &target) -> std::string {
        if (byPath.count("src/" + target))
            return "src/" + target;
        if (byPath.count(target))
            return target;
        const std::string local = dirOf(fromPath) + "/" + target;
        if (byPath.count(local))
            return local;
        return std::string();
    };

    // Transitive quoted-include closure per participating file.
    std::map<std::string, std::set<std::string>> closure;
    std::function<const std::set<std::string> &(const std::string &)>
        closureOf = [&](const std::string &path)
        -> const std::set<std::string> & {
        auto it = closure.find(path);
        if (it != closure.end())
            return it->second;
        auto &cl = closure[path]; // inserted first: cycles terminate
        for (const Include &inc : sums[byPath.at(path)].includes) {
            const std::string to = resolveInclude(path, inc.target);
            if (to.empty() || cl.count(to))
                continue;
            cl.insert(to);
            for (const std::string &t : closureOf(to))
                cl.insert(t);
        }
        return closure[path];
    };

    // Candidate definition sites for calls from `path`: same file,
    // same directory, include closure, or the source sibling of a
    // header in the closure (foo.hh in closure -> foo.cc eligible).
    auto candidateFiles = [&](const std::string &path) {
        std::set<std::size_t> cand;
        const std::string dir = dirOf(path);
        std::set<std::string> siblings;
        for (const std::string &h : closureOf(path))
            siblings.insert(stemOf(h));
        for (std::size_t i = 0; i < sums.size(); ++i) {
            const std::string &p = sums[i].path;
            if (!underAny(p, cfg.r9Paths))
                continue;
            if (p == path || dirOf(p) == dir ||
                closure.at(path).count(p) || siblings.count(stemOf(p)))
                cand.insert(i);
        }
        return cand;
    };

    // Build the qualified lock-order graph. Summaries arrive in
    // sorted path order and functions in file order, so insertion
    // order (and thus first-edge dedup) is deterministic.
    std::map<std::string, std::vector<Edge>> adj;
    std::set<std::string> nodes;
    std::set<std::pair<std::string, std::string>> seenEdge;
    auto addEdge = [&](const std::string &from, const std::string &to,
                       std::size_t sumIdx, int line,
                       const std::string &via) {
        if (from == to)
            return;
        nodes.insert(from);
        nodes.insert(to);
        if (!seenEdge.insert({from, to}).second)
            return;
        adj[from].push_back({to, sumIdx, line, via});
    };

    for (std::size_t i = 0; i < sums.size(); ++i) {
        const FileSummary &s = sums[i];
        if (!underAny(s.path, cfg.r9Paths))
            continue;
        for (const FunctionInfo &fn : s.functions)
            for (const LockEdge &e : fn.edges)
                addEdge(s.path + ":" + e.from, s.path + ":" + e.to, i,
                        e.line, std::string());
    }
    for (std::size_t i = 0; i < sums.size(); ++i) {
        const FileSummary &s = sums[i];
        if (!underAny(s.path, cfg.r9Paths))
            continue;
        std::set<std::size_t> cand; // computed lazily, once per file
        bool haveCand = false;
        for (const FunctionInfo &fn : s.functions) {
            for (const HeldCall &hc : fn.heldCalls) {
                if (hc.held.empty())
                    continue;
                if (!haveCand) {
                    cand = candidateFiles(s.path);
                    haveCand = true;
                }
                for (std::size_t j : cand) {
                    const FileSummary &callee = sums[j];
                    for (const FunctionInfo &g : callee.functions) {
                        if (g.name != hc.callee || g.arity != hc.arity)
                            continue;
                        for (const std::string &l : g.acquired)
                            for (const std::string &h : hc.held)
                                addEdge(s.path + ":" + h,
                                        callee.path + ":" + l, i,
                                        hc.line,
                                        "via " + hc.callee + "() -> " +
                                            callee.path + ":" +
                                            std::to_string(g.line));
                    }
                }
            }
        }
    }

    if (nodes.empty())
        return;

    // Tarjan SCC over the sorted node set with sorted-by-insertion
    // adjacency: deterministic component discovery order.
    std::map<std::string, int> index, lowlink;
    std::set<std::string> onStack;
    std::vector<std::string> stack;
    int counter = 0;
    std::vector<std::vector<std::string>> sccs;
    std::function<void(const std::string &)> strongconnect =
        [&](const std::string &v) {
            index[v] = lowlink[v] = counter++;
            stack.push_back(v);
            onStack.insert(v);
            auto it = adj.find(v);
            if (it != adj.end()) {
                for (const Edge &e : it->second) {
                    if (!index.count(e.to)) {
                        strongconnect(e.to);
                        lowlink[v] = std::min(lowlink[v], lowlink[e.to]);
                    } else if (onStack.count(e.to)) {
                        lowlink[v] = std::min(lowlink[v], index[e.to]);
                    }
                }
            }
            if (lowlink[v] == index[v]) {
                std::vector<std::string> scc;
                for (;;) {
                    const std::string w = stack.back();
                    stack.pop_back();
                    onStack.erase(w);
                    scc.push_back(w);
                    if (w == v)
                        break;
                }
                if (scc.size() > 1)
                    sccs.push_back(std::move(scc));
            }
        };
    for (const std::string &n : nodes)
        if (!index.count(n))
            strongconnect(n);

    // One violation per inverted component, in sorted order,
    // describing a concrete cycle walked from the smallest node.
    std::sort(sccs.begin(), sccs.end(),
              [](const std::vector<std::string> &a,
                 const std::vector<std::string> &b) {
                  return *std::min_element(a.begin(), a.end()) <
                         *std::min_element(b.begin(), b.end());
              });
    for (const std::vector<std::string> &scc : sccs) {
        const std::set<std::string> members(scc.begin(), scc.end());
        const std::string start =
            *std::min_element(scc.begin(), scc.end());

        // Walk a cycle start -> ... -> start inside the component.
        std::vector<const Edge *> path;
        std::set<std::string> visited;
        std::function<bool(const std::string &)> walk =
            [&](const std::string &v) -> bool {
            for (const Edge &e : adj[v]) {
                if (!members.count(e.to))
                    continue;
                if (e.to == start) {
                    path.push_back(&e);
                    return true;
                }
                if (visited.insert(e.to).second) {
                    path.push_back(&e);
                    if (walk(e.to))
                        return true;
                    path.pop_back();
                }
            }
            return false;
        };
        if (!walk(start) || path.empty())
            continue; // unreachable: an SCC always closes a cycle

        std::string desc = "lock-order cycle (potential deadlock): " +
                           start;
        for (const Edge *e : path) {
            desc += " -> " + e->to;
            if (!e->via.empty())
                desc += " [" + e->via + "]";
        }
        desc += " — acquire these mutexes in one global order (or "
                "take them together with std::scoped_lock)";
        const Edge *anchor = path.front();
        emitCross(sums[anchor->sumIdx], anchor->line, "R9", desc, out);
    }
}

} // namespace decepticon::lint
