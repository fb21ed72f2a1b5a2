#include "a/lib.hh"

namespace fixture_a {

int
helper()
{
    return 1;
}

int
testOnly()
{
    return 0;
}

int
fromBench()
{
    return helper() + 1;
}

int
fromExample()
{
    return 3;
}

int
fromCampaignbench()
{
    return 4;
}

int
fromObsview()
{
    return 5;
}

int
shared()
{
    return 6;
}

int
reference()
{
    return 7;
}

int
reachedAnyway()
{
    return 8;
}

} // namespace fixture_a
