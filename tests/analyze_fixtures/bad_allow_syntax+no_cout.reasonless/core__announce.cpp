// Seeded fixture: a reasonless allow directive over a real no-cout finding.
// The directive is an allow-syntax finding and suppresses nothing, so the
// no-cout finding under it is still reported.
#include <iostream>

// rahooi-analyze: allow(no-cout)
inline void announce() { std::cout << "hello from a rank\n"; }
