#ifndef LINT_FIXTURE_A_OTHER_HH
#define LINT_FIXTURE_A_OTHER_HH

namespace fixture_a {

class Other
{
  public:
    int shared() const { return 2; }
};

} // namespace fixture_a

#endif // LINT_FIXTURE_A_OTHER_HH
