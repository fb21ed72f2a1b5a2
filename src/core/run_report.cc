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
        << ",\"probe_retries\":" << extraction.probeRetries
        << ",\"vote_reads\":" << extraction.voteReads
        << ",\"probe_failures\":" << extraction.probeFailures
        << ",\"fallback_bits\":" << extraction.fallbackBits
        << ",\"exhausted_bits\":" << extraction.exhaustedBits
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

void
AttackReport::toMetrics(obs::MetricsRegistry &registry) const
{
    const auto gauge = [&](const char *name, double value) {
        registry.setGauge(std::string("run.") + name, value);
    };
    const IdentificationResult &id = identification;
    gauge("identify_confidence", id.topProbability);
    gauge("quorum_agreement", id.quorumAgreement);
    gauge("captures_used", static_cast<double>(id.capturesUsed));
    gauge("used_query_probes", id.usedQueryProbes ? 1.0 : 0.0);
    gauge("used_channel_fusion", id.usedChannelFusion ? 1.0 : 0.0);
    gauge("insufficient_evidence", id.insufficientEvidence ? 1.0 : 0.0);
    gauge("fused_confidence", id.fusedConfidence);
    gauge("channels_available",
          static_cast<double>(id.channelsAvailable));
    gauge("layers_extracted", static_cast<double>(layersExtracted));
    gauge("bits_read", static_cast<double>(probe.bitsRead));
    gauge("hammer_rounds", static_cast<double>(probe.hammerRounds));
    gauge("total_weights", static_cast<double>(extraction.totalWeights));
    gauge("weights_skipped",
          static_cast<double>(extraction.weightsSkipped));
    gauge("probe_retries", static_cast<double>(extraction.probeRetries));
    gauge("vote_reads", static_cast<double>(extraction.voteReads));
    gauge("probe_failures",
          static_cast<double>(extraction.probeFailures));
    gauge("fallback_bits", static_cast<double>(extraction.fallbackBits));
    gauge("exhausted_bits",
          static_cast<double>(extraction.exhaustedBits));
    gauge("victim_queries", static_cast<double>(victimQueries));
    gauge("victim_accuracy", victimAccuracy);
    gauge("clone_accuracy", cloneAccuracy);
    gauge("agreement", cloneVictimAgreement);
    gauge("adversarial_success", adversarial.successRate());
    gauge("complete", complete ? 1.0 : 0.0);
    gauge("total_micros", static_cast<double>(totalMicros()));
    for (const auto &p : phases)
        registry.setGauge("phase." + p.name + ".micros",
                          static_cast<double>(p.micros));
}

std::string
AttackReport::summaryParagraph() const
{
    const IdentificationResult &id = identification;
    const extraction::ExtractionStats &ex = extraction;
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
    if (ex.probeRetries + ex.voteReads + ex.fallbackBits > 0)
        oss << " (" << ex.probeRetries << " retries, " << ex.voteReads
            << " vote reads, " << ex.fallbackBits << " baseline-fallback"
            << " bits, " << ex.exhaustedBits << " exhausted)";
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
