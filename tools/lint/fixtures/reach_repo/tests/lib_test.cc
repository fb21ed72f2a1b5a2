// tests/ is no caller: these uses reach nothing.
#include "a/lib.hh"

int
main()
{
    fixture_a::TestOnlyType t;
    return fixture_a::testOnly() + fixture_a::shared() +
           fixture_a::reference() + t.x;
}
