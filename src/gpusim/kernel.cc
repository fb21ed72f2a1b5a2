#include "gpusim/kernel.hh"

#include <algorithm>

namespace decepticon::gpusim {

void
KernelNameTable::reserve(std::size_t names, std::size_t chars)
{
    starts_.reserve(names + 1);
    chars_.reserve(chars);
}

void
KernelNameTable::push(std::initializer_list<std::string_view> pieces)
{
    for (std::string_view piece : pieces)
        chars_.append(piece);
    chars_.push_back('\0');
    starts_.push_back(static_cast<std::uint32_t>(chars_.size()));
}

double
KernelTrace::totalTime() const
{
    double end = 0.0;
    for (const auto &r : records)
        end = std::max(end, r.tEnd);
    return end;
}

std::vector<double>
KernelTrace::durations() const
{
    std::vector<double> out;
    out.reserve(records.size());
    for (const auto &r : records)
        out.push_back(r.duration());
    return out;
}

std::size_t
KernelTrace::uniqueKernelCount() const
{
    // Ids index the shared name table, so a bitmap of its size counts
    // them in one pass. A trace without a table, or with an id outside
    // it (victim-side input is not trusted), takes the sort instead.
    if (kernelNames != nullptr) {
        std::vector<bool> seen(kernelNames->size(), false);
        std::size_t distinct = 0;
        bool in_range = true;
        for (const auto &r : records) {
            const auto id = static_cast<std::size_t>(r.kernelId);
            if (r.kernelId < 0 || id >= seen.size()) {
                in_range = false;
                break;
            }
            if (!seen[id]) {
                seen[id] = true;
                ++distinct;
            }
        }
        if (in_range)
            return distinct;
    }
    std::vector<int> ids = kernelIdSequence();
    std::sort(ids.begin(), ids.end());
    return static_cast<std::size_t>(
        std::unique(ids.begin(), ids.end()) - ids.begin());
}

double
KernelTrace::peakDuration() const
{
    double mx = 0.0;
    for (const auto &r : records)
        mx = std::max(mx, r.duration());
    return mx;
}

std::vector<int>
KernelTrace::kernelIdSequence() const
{
    std::vector<int> out;
    out.reserve(records.size());
    for (const auto &r : records)
        out.push_back(r.kernelId);
    return out;
}

} // namespace decepticon::gpusim
