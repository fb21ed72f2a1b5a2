#include "gpusim/kernel.hh"

#include <algorithm>

namespace decepticon::gpusim {

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

std::vector<KernelRecord>
KernelTrace::encoderRecords() const
{
    std::vector<KernelRecord> out;
    for (const auto &r : records) {
        if (r.phase == Phase::Encoder)
            out.push_back(r);
    }
    return out;
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
