#include "util/edit_distance.hh"

#include <algorithm>
#include <cassert>

namespace decepticon::util {

std::size_t
editDistance(const std::vector<int> &a, const std::vector<int> &b)
{
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    if (n == 0)
        return m;
    if (m == 0)
        return n;

    std::vector<std::size_t> prev(m + 1), cur(m + 1);
    for (std::size_t j = 0; j <= m; ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= m; ++j) {
            const std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[m];
}

double
layerErrorRate(const std::vector<int> &predicted,
               const std::vector<int> &truth)
{
    assert(!truth.empty());
    return static_cast<double>(editDistance(predicted, truth)) /
           static_cast<double>(truth.size());
}

} // namespace decepticon::util
