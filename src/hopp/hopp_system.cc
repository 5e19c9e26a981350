#include "hopp/hopp_system.hh"

#include "prefetch/prefetcher.hh"

namespace hopp::core
{

HoppSystem::HoppSystem(sim::EventQueue &eq, vm::Vms &vms,
                       mem::MemCtrl &mc, const HoppConfig &cfg)
    : vms_(vms), mc_(mc), policy_(cfg.policy), exec_(vms, policy_),
      pipeline_(eq, mc.dram(), policy_, exec_, cfg)
{
}

void
HoppSystem::start()
{
    hopp_assert(!started_, "HoPP already started");
    started_ = true;
    hopp_assert(vms_.pageTable().size() == 0,
                "HoppSystem::start() must run before the first page "
                "is mapped (page table holds %zu records)",
                vms_.pageTable().size());
    mc_.attach(this);
    vms_.addPteHook(this);
    vms_.addListener(this);
    if (config().evictionAdvisor)
        vms_.setEvictionAdvisor(this);
}

void
HoppSystem::onPrefetchCompleted(Pid pid, Vpn vpn, vm::Origin o, Tick,
                                bool)
{
    if (o == prefetch::origin::hopp)
        exec_.onCompleted(pid, vpn);
}

void
HoppSystem::onPrefetchHit(Pid pid, Vpn vpn, vm::Origin o, Tick ready_at,
                          Tick hit_at, bool)
{
    if (o == prefetch::origin::hopp)
        exec_.onHit(pid, vpn, ready_at, hit_at);
}

void
HoppSystem::onPrefetchEvicted(Pid pid, Vpn vpn, vm::Origin o, Tick)
{
    if (o == prefetch::origin::hopp)
        exec_.onEvicted(pid, vpn);
}

} // namespace hopp::core
