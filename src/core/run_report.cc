#include "core/run_report.hh"

#include <sstream>

#include "obs/metrics.hh"

namespace decepticon::core {

void
AttackRunReport::recordIdentification(const IdentificationResult &ident)
{
    identifiedParent = ident.pretrainedName;
    identifyConfidence = ident.topProbability;
    usedQueryProbes = ident.usedQueryProbes;
    capturesUsed = ident.capturesUsed;
    quorumAgreement = ident.quorumAgreement;
    usedChannelFusion = ident.usedChannelFusion;
    insufficientEvidence = ident.insufficientEvidence;
    fusedConfidence = ident.fusedConfidence;
    channelsAvailable = ident.channelsAvailable;
    channelsUsed = ident.channelsUsed;
}

void
AttackRunReport::recordExtraction(const extraction::ProbeStats &probe,
                                  const extraction::ExtractionStats &stats,
                                  std::size_t layers_extracted,
                                  std::size_t victim_queries)
{
    layersExtracted = layers_extracted;
    bitsRead = probe.bitsRead;
    hammerRounds = probe.hammerRounds;
    totalWeights = stats.totalWeights;
    weightsSkipped = stats.weightsSkipped;
    probeRetries = stats.probeRetries;
    voteReads = stats.voteReads;
    probeFailures = stats.probeFailures;
    fallbackBits = stats.fallbackBits;
    exhaustedBits = stats.exhaustedBits;
    victimQueries = victim_queries;
}

void
AttackRunReport::recordPhase(std::string name, std::uint64_t micros)
{
    phases.push_back(PhaseTiming{std::move(name), micros});
}

std::uint64_t
AttackRunReport::totalMicros() const
{
    std::uint64_t total = 0;
    for (const auto &p : phases)
        total += p.micros;
    return total;
}

std::string
AttackRunReport::toJson() const
{
    std::ostringstream oss;
    oss << "{\"level1\":{"
        << "\"parent\":" << obs::jsonQuote(identifiedParent)
        << ",\"confidence\":" << obs::jsonNumber(identifyConfidence)
        << ",\"used_query_probes\":"
        << (usedQueryProbes ? "true" : "false")
        << ",\"captures_used\":" << capturesUsed
        << ",\"quorum_agreement\":" << obs::jsonNumber(quorumAgreement)
        << ",\"used_channel_fusion\":"
        << (usedChannelFusion ? "true" : "false")
        << ",\"insufficient_evidence\":"
        << (insufficientEvidence ? "true" : "false")
        << ",\"fused_confidence\":" << obs::jsonNumber(fusedConfidence)
        << ",\"channels_available\":" << channelsAvailable
        << ",\"channels_used\":[";
    for (std::size_t i = 0; i < channelsUsed.size(); ++i) {
        if (i > 0)
            oss << ",";
        oss << obs::jsonQuote(channelsUsed[i]);
    }
    oss << "]},\"level2\":{"
        << "\"layers_extracted\":" << layersExtracted
        << ",\"bits_read\":" << bitsRead
        << ",\"hammer_rounds\":" << hammerRounds
        << ",\"total_weights\":" << totalWeights
        << ",\"weights_skipped\":" << weightsSkipped
        << ",\"probe_retries\":" << probeRetries
        << ",\"vote_reads\":" << voteReads
        << ",\"probe_failures\":" << probeFailures
        << ",\"fallback_bits\":" << fallbackBits
        << ",\"exhausted_bits\":" << exhaustedBits
        << ",\"victim_queries\":" << victimQueries
        << "},\"quality\":{"
        << "\"victim_accuracy\":" << obs::jsonNumber(victimAccuracy)
        << ",\"clone_accuracy\":" << obs::jsonNumber(cloneAccuracy)
        << ",\"agreement\":" << obs::jsonNumber(cloneVictimAgreement)
        << ",\"adversarial_success\":"
        << obs::jsonNumber(adversarialSuccess)
        << ",\"complete\":" << (complete ? "true" : "false")
        << "},\"phases\":[";
    for (std::size_t i = 0; i < phases.size(); ++i) {
        if (i > 0)
            oss << ",";
        oss << "{\"name\":" << obs::jsonQuote(phases[i].name)
            << ",\"micros\":" << phases[i].micros << "}";
    }
    oss << "],\"total_micros\":" << totalMicros() << ",\"watchdog\":";
    watchdog.toJson(oss);
    oss << "}";
    return oss.str();
}

void
AttackRunReport::toMetrics(obs::MetricsRegistry &registry) const
{
    const auto gauge = [&](const char *name, double value) {
        registry.setGauge(std::string("run.") + name, value);
    };
    gauge("identify_confidence", identifyConfidence);
    gauge("quorum_agreement", quorumAgreement);
    gauge("captures_used", static_cast<double>(capturesUsed));
    gauge("used_query_probes", usedQueryProbes ? 1.0 : 0.0);
    gauge("used_channel_fusion", usedChannelFusion ? 1.0 : 0.0);
    gauge("insufficient_evidence", insufficientEvidence ? 1.0 : 0.0);
    gauge("fused_confidence", fusedConfidence);
    gauge("channels_available", static_cast<double>(channelsAvailable));
    gauge("layers_extracted", static_cast<double>(layersExtracted));
    gauge("bits_read", static_cast<double>(bitsRead));
    gauge("hammer_rounds", static_cast<double>(hammerRounds));
    gauge("total_weights", static_cast<double>(totalWeights));
    gauge("weights_skipped", static_cast<double>(weightsSkipped));
    gauge("probe_retries", static_cast<double>(probeRetries));
    gauge("vote_reads", static_cast<double>(voteReads));
    gauge("probe_failures", static_cast<double>(probeFailures));
    gauge("fallback_bits", static_cast<double>(fallbackBits));
    gauge("exhausted_bits", static_cast<double>(exhaustedBits));
    gauge("victim_queries", static_cast<double>(victimQueries));
    gauge("victim_accuracy", victimAccuracy);
    gauge("clone_accuracy", cloneAccuracy);
    gauge("agreement", cloneVictimAgreement);
    gauge("adversarial_success", adversarialSuccess);
    gauge("complete", complete ? 1.0 : 0.0);
    gauge("total_micros", static_cast<double>(totalMicros()));
    gauge("watchdog_ticks", static_cast<double>(watchdog.ticks));
    gauge("watchdog_findings",
          static_cast<double>(watchdog.findings.size()));
    for (const auto &p : phases)
        registry.setGauge("phase." + p.name + ".micros",
                          static_cast<double>(p.micros));
}

std::string
AttackRunReport::summaryParagraph() const
{
    std::ostringstream oss;
    if (insufficientEvidence) {
        oss << "Attack run: identification abstained — insufficient"
               " evidence across "
            << channelsAvailable << " usable channel(s) from "
            << capturesUsed << " capture(s)";
    } else {
        oss << "Attack run: identified parent \""
            << (identifiedParent.empty() ? "<none>" : identifiedParent)
            << "\" with confidence " << identifyConfidence;
    }
    if (capturesUsed > 1 && !insufficientEvidence)
        oss << " from " << capturesUsed
            << " noisy captures (quorum agreement " << quorumAgreement
            << ")";
    if (usedChannelFusion && !insufficientEvidence) {
        oss << ", fusing ";
        for (std::size_t i = 0; i < channelsUsed.size(); ++i) {
            if (i > 0)
                oss << "+";
            oss << channelsUsed[i];
        }
        oss << " (fused confidence " << fusedConfidence << ")";
    }
    if (usedQueryProbes)
        oss << ", disambiguated via query probes";
    oss << ". Extracted " << layersExtracted << " layer(s) reading "
        << bitsRead << " bits in " << hammerRounds
        << " hammer rounds, skipping " << weightsSkipped << " of "
        << totalWeights << " weights";
    if (probeRetries + voteReads + fallbackBits > 0)
        oss << " (" << probeRetries << " retries, " << voteReads
            << " vote reads, " << fallbackBits << " baseline-fallback"
            << " bits, " << exhaustedBits << " exhausted)";
    oss << ", using " << victimQueries << " victim queries. "
        << "Clone accuracy " << cloneAccuracy << " vs victim "
        << victimAccuracy << " (agreement " << cloneVictimAgreement
        << "); adversarial success " << adversarialSuccess << ". ";
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
    if (watchdog.ticks > 0) {
        if (watchdog.healthy())
            oss << "Watchdog healthy over " << watchdog.ticks
                << " tick(s). ";
        else
            oss << "Watchdog flagged " << watchdog.findings.size()
                << " SLO violation(s) over " << watchdog.ticks
                << " tick(s). ";
    }
    oss << "Run " << (complete ? "complete" : "incomplete") << ".";
    return oss.str();
}

} // namespace decepticon::core
