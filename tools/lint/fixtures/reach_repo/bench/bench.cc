#include "a/lib.hh"
#include "a/other.hh"

int
main()
{
    return fixture_a::fromBench() + fixture_a::Other().shared() +
           fixture_a::reachedAnyway();
}
