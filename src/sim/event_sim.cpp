#include "sim/event_sim.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mdd {

EventSim::EventSim(const Netlist& netlist)
    : netlist_(&netlist),
      values_(netlist.n_nets(), false),
      scratch_(netlist.n_nets(), false),
      touched_(netlist.n_nets(), false),
      level_queue_(netlist.depth() + 1),
      queued_(netlist.n_nets(), false) {
  if (!netlist.finalized())
    throw std::logic_error("EventSim: netlist not finalized");
}

void EventSim::apply(const PatternSet& stimuli, std::size_t p) {
  apply(stimuli.pattern(p));
}

void EventSim::apply(const std::vector<bool>& pi_values) {
  const auto& inputs = netlist_->inputs();
  if (pi_values.size() != inputs.size())
    throw std::invalid_argument("EventSim::apply: PI count mismatch");
  for (std::size_t i = 0; i < inputs.size(); ++i)
    values_[inputs[i]] = pi_values[i];
  std::vector<bool> ins;
  for (NetId g : netlist_->topo_order()) {
    const GateKind k = netlist_->kind(g);
    if (k == GateKind::Input) continue;
    ins.clear();
    for (NetId f : netlist_->fanins(g)) ins.push_back(values_[f]);
    values_[g] = eval_gate(k, ins);
  }
}

void EventSim::propagate_flip(NetId n) {
  // Seed: net n takes the opposite of its committed value.
  scratch_[n] = !values_[n];
  touched_[n] = true;
  touched_list_.push_back(n);

  auto read = [&](NetId x) { return touched_[x] ? scratch_[x] : values_[x]; };

  for (NetId s : netlist_->fanouts(n)) {
    if (!queued_[s]) {
      queued_[s] = true;
      level_queue_[netlist_->level(s)].push_back(s);
    }
  }
  std::vector<bool> ins;
  for (std::uint32_t lv = 0; lv < level_queue_.size(); ++lv) {
    for (std::size_t idx = 0; idx < level_queue_[lv].size(); ++idx) {
      const NetId g = level_queue_[lv][idx];
      queued_[g] = false;
      ins.clear();
      for (NetId f : netlist_->fanins(g)) ins.push_back(read(f));
      const bool v = eval_gate(netlist_->kind(g), ins);
      if (v != read(g)) {
        scratch_[g] = v;
        if (!touched_[g]) {
          touched_[g] = true;
          touched_list_.push_back(g);
        }
        for (NetId s : netlist_->fanouts(g)) {
          if (!queued_[s]) {
            queued_[s] = true;
            level_queue_[netlist_->level(s)].push_back(s);
          }
        }
      }
    }
    level_queue_[lv].clear();
  }
}

std::vector<std::uint32_t> EventSim::flip_observed_outputs(NetId n) {
  propagate_flip(n);
  std::vector<std::uint32_t> observed;
  for (NetId t : touched_list_) {
    if (scratch_[t] != values_[t]) {
      if (auto idx = netlist_->output_index(t)) observed.push_back(*idx);
    }
    touched_[t] = false;
  }
  touched_list_.clear();
  std::sort(observed.begin(), observed.end());
  return observed;
}

std::vector<NetId> EventSim::flip_changed_nets(NetId n) {
  propagate_flip(n);
  std::vector<NetId> changed;
  for (NetId t : touched_list_) {
    if (scratch_[t] != values_[t]) changed.push_back(t);
    touched_[t] = false;
  }
  touched_list_.clear();
  std::sort(changed.begin(), changed.end());
  return changed;
}

}  // namespace mdd
