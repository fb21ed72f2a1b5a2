// Read only: R11 counts these uses, and no other rule runs here (the
// raw clock read would be an R1 hit under [scan.roots]).
#include <chrono>

#include "a/lib.hh"

int
main()
{
    (void)std::chrono::steady_clock::now();
    return fixture_a::fromCampaignbench();
}
