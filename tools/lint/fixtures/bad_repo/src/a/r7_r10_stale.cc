// R5 positives: one stale suppression per v2 rule id R7–R9 (no
// matching violation on the targeted lines), plus suppressions naming
// rule ids the tool does not have (the retired R10 and R42).
#include <cstddef>

namespace fixture {

int
plainArithmetic(int x)
{
    int a = x + 1;     // lint: suppress(R7) nothing parallel here
    int b = a * 2;     // lint: suppress(R8) not a reduction
    int c = b - x;     // lint: suppress(R9) no locks in sight
    int d = c + a;     // lint: suppress(R10) no spans either
    int e = d - b;     // lint: suppress(R42) imaginary rule id
    return e;
}

} // namespace fixture
