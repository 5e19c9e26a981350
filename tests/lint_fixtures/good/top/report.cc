// A top-layer user of a mid-layer component: the downward include is
// allowed by the layer order.
#include "mid/gadget.hh"

namespace fixture
{

unsigned long long
touchTwice(Gadget &g)
{
    g.touch();
    g.touch();
    return g.uses();
}

} // namespace fixture
