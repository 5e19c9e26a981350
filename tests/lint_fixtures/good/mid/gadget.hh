// A mid-layer component: it includes the bottom layer and the top
// layer's interface header, both allowed by layers.conf.
#pragma once

#include "base/util.hh"
#include "top/note.hh"

namespace fixture
{

class Gadget
{
  public:
    void touch() { ++uses_; }
    unsigned long long uses() const { return uses_; }

  private:
    unsigned long long uses_ = 0;
};

} // namespace fixture
