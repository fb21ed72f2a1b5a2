// R11 subjects: every function and class declared here.
#ifndef LINT_FIXTURE_A_LIB_HH
#define LINT_FIXTURE_A_LIB_HH

namespace fixture_a {

int testOnly();          // only tests/ call it: flagged
struct TestOnlyType      // only tests/ name it: flagged
{
    int x = 0;
};

int fromBench();         // reached from bench/
int fromExample();       // reached from examples/
int fromCampaignbench(); // reached from campaignbench/ (read only)
int fromObsview();       // reached from tools/obsview/ (read only)
int helper();            // reached only inside lib.cc
int shared();            // tests/ only, but shares its name with
                         // Other::shared, which bench/ reaches

// lint: suppress(R11) the reference implementation tests compare to
int reference();

// lint: suppress(R11) stale: bench/ reaches it, so R5 flags this
int reachedAnyway();

} // namespace fixture_a

#endif // LINT_FIXTURE_A_LIB_HH
