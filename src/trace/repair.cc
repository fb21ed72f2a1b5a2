#include "trace/repair.hh"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/obs.hh"

namespace decepticon::trace {

namespace {

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

double
median(std::vector<double> &values)
{
    assert(!values.empty());
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

} // namespace

gpusim::KernelTrace
dedupeRecords(const gpusim::KernelTrace &trace, std::size_t *removed)
{
    gpusim::KernelTrace out;
    out.kernelNames = trace.kernelNames;
    out.records.reserve(trace.records.size());
    std::size_t dropped = 0;
    for (const auto &rec : trace.records) {
        if (!out.records.empty()) {
            const auto &prev = out.records.back();
            if (prev.kernelId == rec.kernelId &&
                prev.tStart == rec.tStart && prev.tEnd == rec.tEnd) {
                ++dropped;
                continue;
            }
        }
        out.records.push_back(rec);
    }
    if (removed != nullptr)
        *removed = dropped;
    return out;
}

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
    assert(!captures.empty());

    auto sp = obs::span("trace.repair");

    std::size_t duplicates_removed = 0;
    std::vector<gpusim::KernelTrace> clean;
    clean.reserve(captures.size());
    for (const auto &cap : captures) {
        std::size_t removed = 0;
        clean.push_back(dedupeRecords(cap, &removed));
        duplicates_removed += removed;
    }

    // The longest capture is the consensus skeleton: with independent
    // per-record drops it is the closest observable approximation of
    // the true schedule.
    std::size_t ref_idx = 0;
    for (std::size_t c = 1; c < clean.size(); ++c) {
        if (clean[c].records.size() > clean[ref_idx].records.size())
            ref_idx = c;
    }
    const gpusim::KernelTrace &ref = clean[ref_idx];
    assert(!ref.records.empty());

    const std::vector<int> ref_ids = ref.kernelIdSequence();
    std::vector<std::vector<std::size_t>> matches;
    matches.reserve(clean.size());
    double aligned_sum = 0.0;
    for (const auto &cap : clean) {
        matches.push_back(
            alignToReference(ref_ids, cap.kernelIdSequence()));
        std::size_t hit = 0;
        for (std::size_t m : matches.back())
            hit += m != kNpos ? 1 : 0;
        aligned_sum += static_cast<double>(hit) /
                       static_cast<double>(ref_ids.size());
    }

    // Rebuild the timeline with median-filtered durations and gaps.
    gpusim::KernelTrace out;
    out.kernelNames = ref.kernelNames;
    out.records.reserve(ref.records.size());
    double clock = 0.0;
    for (std::size_t p = 0; p < ref.records.size(); ++p) {
        std::vector<double> durations;
        std::vector<double> gaps;
        for (std::size_t c = 0; c < clean.size(); ++c) {
            const std::size_t m = matches[c][p];
            if (m == kNpos)
                continue;
            const auto &recs = clean[c].records;
            durations.push_back(recs[m].duration());
            // A leading gap is only trustworthy when the previous
            // consensus record is this record's direct predecessor in
            // the same capture (no dropped records in between).
            if (p == 0) {
                if (m == 0)
                    gaps.push_back(recs[0].tStart);
            } else if (matches[c][p - 1] != kNpos &&
                       matches[c][p - 1] + 1 == m) {
                gaps.push_back(recs[m].tStart -
                               recs[m - 1].tEnd);
            }
        }
        gpusim::KernelRecord rec = ref.records[p];
        const double dur =
            durations.empty() ? rec.duration() : median(durations);
        double gap;
        if (!gaps.empty()) {
            gap = median(gaps);
        } else if (p == 0) {
            gap = rec.tStart;
        } else {
            gap = rec.tStart - ref.records[p - 1].tEnd;
        }
        rec.tStart = clock + std::max(0.0, gap);
        rec.tEnd = rec.tStart + std::max(0.0, dur);
        clock = rec.tEnd;
        out.records.push_back(rec);
    }

    const double aligned_fraction =
        aligned_sum / static_cast<double>(clean.size());
    if (report != nullptr) {
        report->captures = captures.size();
        report->referenceRecords = out.records.size();
        report->duplicatesRemoved = duplicates_removed;
        report->meanAlignedFraction = aligned_fraction;
    }
    obs::count("trace.repairs");
    obs::count("trace.repair.duplicates_removed", duplicates_removed);
    obs::count("trace.repair.consensus_records", out.records.size());
    obs::gaugeSet("trace.repair.mean_aligned_fraction",
                  aligned_fraction);
    return out;
}

} // namespace decepticon::trace
