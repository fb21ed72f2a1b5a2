/**
 * @file
 * The three campaign workloads. Each is a closed batch queue expanded
 * from (workload, seed); the program only ever sees the queue. Why
 * each was chosen, which layers it loads and which it bypasses is
 * recorded in BENCHMARK.json.
 */

#ifndef CAMPAIGNBENCH_WORKLOADS_HH
#define CAMPAIGNBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "core/two_level.hh"
#include "zoo/session.hh"
#include "zoo/zoo.hh"

namespace campaignbench {

/** Static description of one workload: everything that sets it apart. */
struct WorkloadSpec
{
    std::string name;
    /** Level 2 runs on every non-abstaining session. */
    bool level2 = true;
    /** Level 1 goes through the fingerprint index, not the CNN. */
    bool indexPath = false;
    /** Identification accuracy every run must reach. */
    double accuracyFloor = 0.0;
    /** The timed queue: length, captures, faults, blackouts, skew. */
    decepticon::zoo::SessionSamplerOptions sampler;
    /** The driver's fingerprint cache. */
    decepticon::campaign::CacheOptions cache;
};

/** Mean agreement of fresh clones every run with level 2 must reach. */
constexpr double kCloneAgreementFloor = 0.9;

/** The workload called name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Names of every workload, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/** What set-up builds: the candidate zoo and the prepared attack. */
struct Environment
{
    decepticon::core::TwoLevelOptions options;
    decepticon::zoo::ModelZoo zoo;
    std::unique_ptr<decepticon::core::TwoLevelAttack> attack;
};

/** Zoo build, candidate registration and TwoLevelAttack::prepare(). */
std::unique_ptr<Environment> setUp(const WorkloadSpec &spec);

/** The timed queue for (workload, seed). Lineages point into env.zoo. */
std::vector<decepticon::zoo::VictimSessionSpec>
makeQueue(const WorkloadSpec &spec, const Environment &env,
          std::uint64_t seed);

/** Driver options for (workload, seed). */
decepticon::campaign::CampaignOptions
campaignOptions(const WorkloadSpec &spec, std::uint64_t seed);

} // namespace campaignbench

#endif // CAMPAIGNBENCH_WORKLOADS_HH
