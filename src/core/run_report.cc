#include "core/run_report.hh"

#include <sstream>

#include "obs/metrics.hh"

namespace decepticon::core {

void
AttackReport::recordPhase(std::string name, std::uint64_t micros)
{
    phases.push_back(PhaseTiming{std::move(name), micros});
}

std::uint64_t
AttackReport::totalMicros() const
{
    std::uint64_t total = 0;
    for (const auto &p : phases)
        total += p.micros;
    return total;
}

std::string
AttackReport::toJson() const
{
    const IdentificationResult &id = identification;
    std::ostringstream oss;
    oss << "{\"level1\":{"
        << "\"parent\":" << obs::jsonQuote(id.pretrainedName)
        << ",\"confidence\":" << obs::jsonNumber(id.topProbability)
        << ",\"used_query_probes\":"
        << (id.usedQueryProbes ? "true" : "false")
        << ",\"captures_used\":" << id.capturesUsed
        << ",\"quorum_agreement\":" << obs::jsonNumber(id.quorumAgreement)
        << ",\"used_channel_fusion\":"
        << (id.usedChannelFusion ? "true" : "false")
        << ",\"insufficient_evidence\":"
        << (id.insufficientEvidence ? "true" : "false")
        << ",\"fused_confidence\":" << obs::jsonNumber(id.fusedConfidence)
        << ",\"channels_available\":" << id.channelsAvailable
        << ",\"channels_used\":[";
    for (std::size_t i = 0; i < id.channelsUsed.size(); ++i) {
        if (i > 0)
            oss << ",";
        oss << obs::jsonQuote(id.channelsUsed[i]);
    }
    oss << "]},\"level2\":{"
        << "\"layers_extracted\":" << layersExtracted
        << ",\"bits_read\":" << probe.bitsRead
        << ",\"hammer_rounds\":" << probe.hammerRounds
        << ",\"total_weights\":" << extraction.totalWeights
        << ",\"weights_skipped\":" << extraction.weightsSkipped
        << ",\"probe_retries\":" << reliability.retries
        << ",\"vote_reads\":" << reliability.voteReads
        << ",\"probe_failures\":" << reliability.probeFailures
        << ",\"fallback_bits\":" << reliability.fallbackBits
        << ",\"exhausted_bits\":" << reliability.exhaustedBits
        << ",\"victim_queries\":" << victimQueries
        << "},\"quality\":{"
        << "\"victim_accuracy\":" << obs::jsonNumber(victimAccuracy)
        << ",\"clone_accuracy\":" << obs::jsonNumber(cloneAccuracy)
        << ",\"agreement\":" << obs::jsonNumber(cloneVictimAgreement)
        << ",\"adversarial_success\":"
        << obs::jsonNumber(adversarial.successRate())
        << ",\"complete\":" << (complete ? "true" : "false")
        << "},\"phases\":[";
    for (std::size_t i = 0; i < phases.size(); ++i) {
        if (i > 0)
            oss << ",";
        oss << "{\"name\":" << obs::jsonQuote(phases[i].name)
            << ",\"micros\":" << phases[i].micros << "}";
    }
    oss << "],\"total_micros\":" << totalMicros() << "}";
    return oss.str();
}

std::string
AttackReport::summaryParagraph() const
{
    const IdentificationResult &id = identification;
    const extraction::ExtractionStats &ex = extraction;
    const extraction::ReliabilityStats &rel = reliability;
    std::ostringstream oss;
    if (id.insufficientEvidence) {
        oss << "Attack run: identification abstained — insufficient"
               " evidence across "
            << id.channelsAvailable << " usable channel(s) from "
            << id.capturesUsed << " capture(s)";
    } else {
        oss << "Attack run: identified parent \""
            << (id.pretrainedName.empty() ? "<none>" : id.pretrainedName)
            << "\" with confidence " << id.topProbability;
    }
    if (id.capturesUsed > 1 && !id.insufficientEvidence)
        oss << " from " << id.capturesUsed
            << " noisy captures (quorum agreement " << id.quorumAgreement
            << ")";
    if (id.usedChannelFusion && !id.insufficientEvidence) {
        oss << ", fusing ";
        for (std::size_t i = 0; i < id.channelsUsed.size(); ++i) {
            if (i > 0)
                oss << "+";
            oss << id.channelsUsed[i];
        }
        oss << " (fused confidence " << id.fusedConfidence << ")";
    }
    if (id.usedQueryProbes)
        oss << ", disambiguated via query probes";
    oss << ". Extracted " << layersExtracted << " layer(s) reading "
        << probe.bitsRead << " bits in " << probe.hammerRounds
        << " hammer rounds, skipping " << ex.weightsSkipped << " of "
        << ex.totalWeights << " weights";
    if (rel.retries + rel.voteReads + rel.fallbackBits > 0)
        oss << " (" << rel.retries << " retries, " << rel.voteReads
            << " vote reads, " << rel.fallbackBits << " baseline-fallback"
            << " bits, " << rel.exhaustedBits << " exhausted)";
    oss << ", using " << victimQueries << " victim queries. "
        << "Clone accuracy " << cloneAccuracy << " vs victim "
        << victimAccuracy << " (agreement " << cloneVictimAgreement
        << "); adversarial success " << adversarial.successRate()
        << ". ";
    if (!phases.empty()) {
        oss << "Wall time " << totalMicros() / 1000 << " ms (";
        for (std::size_t i = 0; i < phases.size(); ++i) {
            if (i > 0)
                oss << ", ";
            oss << phases[i].name << " " << phases[i].micros / 1000
                << " ms";
        }
        oss << "). ";
    }
    oss << "Run " << (complete ? "complete" : "incomplete") << ".";
    return oss.str();
}

} // namespace decepticon::core
