#include "trace/repair.hh"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "obs/obs.hh"

namespace decepticon::trace {

namespace {

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

/**
 * Median of @p values (reordered in place); an even count averages
 * the two middle values. Campaign repair medians 1-3 captures, so
 * those counts take min/max instead of nth_element: the same values
 * (the middle of 3 is what nth_element selects, and 0.5 * (hi + lo) is
 * its even-count average), without the partition.
 */
double
median(std::vector<double> &values)
{
    assert(!values.empty());
    switch (values.size()) {
      case 1:
        return values[0];
      case 2:
        return 0.5 * (std::max(values[0], values[1]) +
                      std::min(values[0], values[1]));
      case 3: {
        const double lo = std::min(values[0], values[1]);
        const double hi = std::max(values[0], values[1]);
        return std::max(lo, std::min(hi, values[2]));
      }
      default:
        break;
    }
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                     values.end());
    double m = values[mid];
    if (values.size() % 2 == 0) {
        const auto lower = std::max_element(
            values.begin(), values.begin() + static_cast<long>(mid));
        m = 0.5 * (m + *lower);
    }
    return m;
}

/**
 * One capture after dedupe, as positions into its records plus the
 * kernel id at each position; the records themselves are not copied.
 */
struct DedupedCapture
{
    const std::vector<gpusim::KernelRecord> *records = nullptr;
    std::vector<std::size_t> kept;
    std::vector<int> ids;

    const gpusim::KernelRecord &at(std::size_t m) const
    {
        return (*records)[kept[m]];
    }
};

/**
 * The one duplicate rule: a record identical to the last kept one
 * (same kernel id and timestamps) is a capture artifact. Adds the
 * number of records dropped to @p removed.
 */
DedupedCapture
dedupe(const gpusim::KernelTrace &trace, std::size_t &removed)
{
    DedupedCapture out;
    out.records = &trace.records;
    out.kept.reserve(trace.records.size());
    out.ids.reserve(trace.records.size());
    for (std::size_t k = 0; k < trace.records.size(); ++k) {
        const gpusim::KernelRecord &rec = trace.records[k];
        if (!out.kept.empty()) {
            const gpusim::KernelRecord &prev = trace.records[out.kept.back()];
            if (prev.kernelId == rec.kernelId &&
                prev.tStart == rec.tStart && prev.tEnd == rec.tEnd) {
                ++removed;
                continue;
            }
        }
        out.kept.push_back(k);
        out.ids.push_back(rec.kernelId);
    }
    return out;
}

} // namespace

std::vector<std::size_t>
alignToReference(const std::vector<int> &reference,
                 const std::vector<int> &capture, std::size_t lookahead)
{
    std::vector<std::size_t> matched(reference.size(), kNpos);
    std::size_t i = 0;
    std::size_t j = 0;
    auto find_ahead = [lookahead](const std::vector<int> &seq,
                                  std::size_t from, int id) {
        const std::size_t end =
            std::min(seq.size(), from + lookahead + 1);
        for (std::size_t k = from; k < end; ++k) {
            if (seq[k] == id)
                return k;
        }
        return kNpos;
    };
    while (i < reference.size() && j < capture.size()) {
        if (reference[i] == capture[j]) {
            matched[i] = j;
            ++i;
            ++j;
            continue;
        }
        // Either the capture kept records the reference dropped
        // (skip capture entries) or the capture dropped this
        // reference record (skip the reference entry). Prefer the
        // shorter skip; tie goes to skipping capture extras.
        const std::size_t in_cap = find_ahead(capture, j + 1, reference[i]);
        const std::size_t in_ref = find_ahead(reference, i + 1, capture[j]);
        if (in_cap != kNpos &&
            (in_ref == kNpos || in_cap - j <= in_ref - i)) {
            j = in_cap;
            matched[i] = j;
            ++i;
            ++j;
        } else if (in_ref != kNpos) {
            i = in_ref;
            matched[i] = j;
            ++i;
            ++j;
        } else {
            // Nothing recognizable nearby: treat the reference record
            // as dropped in this capture and move on.
            ++i;
        }
    }
    return matched;
}

gpusim::KernelTrace
repairTraces(const std::vector<gpusim::KernelTrace> &captures,
             RepairReport *report)
{
    auto sp = obs::span("trace.repair");

    std::size_t duplicates_removed = 0;
    std::vector<DedupedCapture> clean;
    clean.reserve(captures.size());
    for (const auto &cap : captures)
        clean.push_back(dedupe(cap, duplicates_removed));

    // The longest capture is the consensus skeleton: with independent
    // per-record drops it is the closest observable approximation of
    // the true schedule.
    std::size_t ref_idx = 0;
    for (std::size_t c = 1; c < clean.size(); ++c) {
        if (clean[c].kept.size() > clean[ref_idx].kept.size())
            ref_idx = c;
    }
    if (clean.empty() || clean[ref_idx].kept.empty()) {
        // Nothing was captured: an empty consensus, not an abort.
        if (report != nullptr)
            *report = RepairReport{};
        return gpusim::KernelTrace{};
    }
    const DedupedCapture &ref = clean[ref_idx];
    const std::size_t n = ref.kept.size();

    std::vector<std::vector<std::size_t>> matches(clean.size());
    double aligned_sum = 0.0;
    for (std::size_t c = 0; c < clean.size(); ++c) {
        if (c == ref_idx) {
            // Aligning the reference to itself is the identity.
            matches[c].resize(n);
            std::iota(matches[c].begin(), matches[c].end(), std::size_t{0});
        } else {
            matches[c] = alignToReference(ref.ids, clean[c].ids);
        }
        std::size_t hit = 0;
        for (std::size_t m : matches[c])
            hit += m != kNpos ? 1 : 0;
        aligned_sum += static_cast<double>(hit) / static_cast<double>(n);
    }

    // Rebuild the timeline with median-filtered durations and gaps.
    gpusim::KernelTrace out;
    out.kernelNames = captures[ref_idx].kernelNames;
    out.records.reserve(n);
    std::vector<double> durations;
    std::vector<double> gaps;
    durations.reserve(clean.size());
    gaps.reserve(clean.size());
    double clock = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
        durations.clear();
        gaps.clear();
        for (std::size_t c = 0; c < clean.size(); ++c) {
            const std::size_t m = matches[c][p];
            if (m == kNpos)
                continue;
            const DedupedCapture &cap = clean[c];
            durations.push_back(cap.at(m).duration());
            // A leading gap is only trustworthy when the previous
            // consensus record is this record's direct predecessor in
            // the same capture (no dropped records in between).
            if (p == 0) {
                if (m == 0)
                    gaps.push_back(cap.at(0).tStart);
            } else if (matches[c][p - 1] != kNpos &&
                       matches[c][p - 1] + 1 == m) {
                gaps.push_back(cap.at(m).tStart - cap.at(m - 1).tEnd);
            }
        }
        gpusim::KernelRecord rec = ref.at(p);
        const double dur =
            durations.empty() ? rec.duration() : median(durations);
        double gap;
        if (!gaps.empty()) {
            gap = median(gaps);
        } else if (p == 0) {
            gap = rec.tStart;
        } else {
            gap = rec.tStart - ref.at(p - 1).tEnd;
        }
        rec.tStart = clock + std::max(0.0, gap);
        rec.tEnd = rec.tStart + std::max(0.0, dur);
        clock = rec.tEnd;
        out.records.push_back(rec);
    }

    if (report != nullptr) {
        report->captures = captures.size();
        report->referenceRecords = out.records.size();
        report->duplicatesRemoved = duplicates_removed;
        report->meanAlignedFraction =
            aligned_sum / static_cast<double>(clean.size());
    }
    obs::count("trace.repairs");
    obs::count("trace.repair.duplicates_removed", duplicates_removed);
    obs::count("trace.repair.consensus_records", out.records.size());
    return out;
}

} // namespace decepticon::trace
