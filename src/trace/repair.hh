/**
 * @file
 * Multi-capture trace repair for the lossy profiling channel. A real
 * kernel-trace capture (CUPTI-style) drops records when its buffer
 * overflows, delivers some records twice, and can truncate the tail
 * when the profiler detaches early. The attacker's remedy is cheap:
 * capture the victim's inference R times, align the noisy captures,
 * and rebuild one consensus trace — duplicates collapsed, per-record
 * durations median-filtered, timeline re-accumulated — before the
 * fingerprint pipeline images it.
 *
 * Repair reads the captures in place: each is deduped into a list of
 * kept record positions and their kernel ids, never copied, and the
 * consensus is written straight from those positions. Captures are
 * victim-side data, so no capture set aborts the repair.
 */

#ifndef DECEPTICON_TRACE_REPAIR_HH
#define DECEPTICON_TRACE_REPAIR_HH

#include <cstddef>
#include <vector>

#include "gpusim/kernel.hh"

namespace decepticon::trace {

/** Accounting of one repair pass. */
struct RepairReport
{
    std::size_t captures = 0;          ///< input captures consumed
    std::size_t referenceRecords = 0;  ///< records in the consensus
    std::size_t duplicatesRemoved = 0; ///< exact duplicates collapsed
    /** Mean fraction of consensus records each capture matched. */
    double meanAlignedFraction = 0.0;
};

/**
 * Greedy alignment of a capture against a reference kernel-id
 * sequence with a bounded lookahead window. Returns, for each
 * reference position, the matched capture index or npos. Assumes both
 * sequences are (noisy) subsequences of one underlying schedule.
 */
std::vector<std::size_t>
alignToReference(const std::vector<int> &reference,
                 const std::vector<int> &capture,
                 std::size_t lookahead = 8);

/**
 * Build one consensus trace from R noisy captures of the same
 * inference: dedupe each capture (a record identical to its
 * predecessor, same kernel id and timestamps, is a CUPTI-style capture
 * artifact, not a second invocation), take the longest as the reference
 * skeleton, align the rest to it, and replace every record's duration
 * and leading gap with the median across the captures that observed
 * it. Timestamps are re-accumulated so the result is physically
 * consistent (monotone, non-overlapping). The consensus shares the
 * reference capture's kernel-name table.
 *
 * An empty capture list, or captures that all have zero records,
 * yields an empty trace (no records, no name table) and a zeroed
 * report.
 */
gpusim::KernelTrace
repairTraces(const std::vector<gpusim::KernelTrace> &captures,
             RepairReport *report = nullptr);

} // namespace decepticon::trace

#endif // DECEPTICON_TRACE_REPAIR_HH
