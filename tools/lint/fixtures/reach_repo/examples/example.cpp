#include "a/lib.hh"

int
main()
{
    return fixture_a::fromExample();
}
