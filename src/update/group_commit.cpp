#include "update/group_commit.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>

#include "engine/indexing_logic.hpp"
#include "update/chip_set.hpp"

namespace clue::update {

namespace {

using Clock = std::chrono::steady_clock;
using netbase::NextHop;
using netbase::Prefix;
using netbase::Route;
using onrtc::FibOp;
using onrtc::FibOpKind;

/// Expands `merged` into `plan` at the set's current boundaries and
/// returns whether every chip's exact projected occupancy fits.
bool plan_fits(std::span<const FibOp> merged, const ChipSet& set,
               CommitPlan& plan) {
  const std::size_t chips = set.size();
  // Cleared, not replaced: every vector keeps its capacity.
  plan.chips.resize(chips);
  for (ChipWork& work : plan.chips) {
    work.erases.clear();
    work.writes.clear();
  }
  plan.dred_erase.clear();
  plan.dred_fix.clear();
  // An insert's prefix is new to the compressed table, so a stored shape
  // one of its pieces coincides with belongs to a region the same plan
  // deletes: every insert piece adds exactly one entry.
  std::vector<std::size_t>& added = plan.added;
  added.assign(chips, 0);

  for (const auto& op : merged) {
    auto& pieces = plan.pieces;
    pieces.clear();
    engine::split_at_boundaries(op.route.prefix, set.boundaries(), pieces);
    if (op.kind == FibOpKind::kInsert) {
      for (const auto& [chip, piece] : pieces) {
        plan.chips[chip].writes.push_back(Route{piece, op.route.next_hop});
        ++added[chip];
      }
      continue;
    }
    // Every stored shape of the region lies on a chip whose current
    // range intersects it; the split enumerates exactly those chips, in
    // order.
    std::size_t last_chip = ~std::size_t{0};
    for (const auto& [chip, piece] : pieces) {
      if (chip == last_chip) continue;
      last_chip = chip;
      plan.stored.clear();
      set.chip(chip).stored_within(op.route.prefix, plan.stored);
      for (const Route& stored : plan.stored) {
        if (op.kind == FibOpKind::kDelete) {
          plan.chips[chip].erases.push_back(stored.prefix);
          plan.dred_erase.push_back(DredSync{chip, stored});
        } else {
          const Route fixed{stored.prefix, op.route.next_hop};
          plan.chips[chip].writes.push_back(fixed);
          plan.dred_fix.push_back(DredSync{chip, fixed});
        }
      }
    }
  }
  for (std::size_t chip = 0; chip < chips; ++chip) {
    const std::size_t projected = set.chip(chip).route_count() -
                                  plan.chips[chip].erases.size() +
                                  added[chip];
    if (projected > set.capacity()) return false;
  }
  return true;
}

}  // namespace

std::vector<FibOp> coalesce_ops(std::span<const FibOp> raw,
                                CoalesceStats* stats) {
  // order: op positions sorted by (prefix, position), so each prefix's
  // ops form one run, in stream order. run_at[p]: where in `order` the
  // run starts whose first op sits at position p (kNone elsewhere), so a
  // pass over positions emits the runs in first-touch order, which keeps
  // the stream deterministic (and equal to `raw` when nothing folds).
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  const auto n = static_cast<std::uint32_t>(raw.size());
  std::vector<std::uint32_t> scratch(2 * std::size_t{n}, kNone);
  const std::span<std::uint32_t> order(scratch.data(), n);
  const std::span<std::uint32_t> run_at(scratch.data() + n, n);
  std::iota(order.begin(), order.end(), 0u);
  const auto prefix_at = [raw](std::uint32_t i) -> const Prefix& {
    return raw[i].route.prefix;
  };
  std::sort(order.begin(), order.end(),
            [&prefix_at](std::uint32_t a, std::uint32_t b) {
              const auto cmp = prefix_at(a) <=> prefix_at(b);
              return cmp != 0 ? cmp < 0 : a < b;
            });
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i == 0 || prefix_at(order[i]) != prefix_at(order[i - 1])) {
      run_at[order[i]] = i;
    }
  }

  std::vector<FibOp> merged;
  for (std::uint32_t first = 0; first < n; ++first) {
    if (run_at[first] == kNone) continue;
    const Prefix& prefix = raw[first].route.prefix;
    // The first op tells the initial state: an insert means the prefix
    // was absent, a delete or modify that it was present. Only a first
    // delete reveals the initial hop (a delete carries the old hop).
    const FibOp& head = raw[first];
    const bool initially_present = head.kind != FibOpKind::kInsert;
    const bool initial_hop_known = head.kind == FibOpKind::kDelete;
    bool present = false;
    NextHop hop{};
    // The old hop the most recent delete carried, for a net delete after
    // a modify-then-delete sequence.
    NextHop deleted_hop{};
    for (std::uint32_t i = run_at[first];
         i < n && prefix_at(order[i]) == prefix; ++i) {
      const FibOp& op = raw[order[i]];
      if (op.kind == FibOpKind::kDelete) {
        present = false;
        deleted_hop = op.route.next_hop;
      } else {
        present = true;
        hop = op.route.next_hop;
      }
    }
    if (!initially_present && present) {
      merged.push_back(FibOp{FibOpKind::kInsert, Route{prefix, hop}});
    } else if (initially_present && !present) {
      // Carry whichever old hop we know — consumers erase by prefix and
      // only report the hop, so either the initial or the last-deleted
      // value is faithful.
      const NextHop old_hop =
          initial_hop_known ? head.route.next_hop : deleted_hop;
      merged.push_back(FibOp{FibOpKind::kDelete, Route{prefix, old_hop}});
    } else if (initially_present && present) {
      // Present throughout: a net modify, unless we can prove the hop
      // came back to where it started (first op was a delete, so the
      // initial hop is known).
      if (!(initial_hop_known && head.route.next_hop == hop)) {
        merged.push_back(FibOp{FibOpKind::kModify, Route{prefix, hop}});
      }
    }
    // initially absent && finally absent: insert+delete cancelled.
  }

  if (stats) {
    stats->raw_ops = raw.size();
    stats->merged_ops = merged.size();
  }
  return merged;
}

BatchTxn::BatchTxn(onrtc::CompressedFib& fib,
                   std::span<const workload::UpdateMsg> messages)
    : fib_(fib), messages_(messages) {
  const auto start = Clock::now();
  // A message's diff averages a few ops; four each rarely regrows.
  journal_.reserve(4 * messages.size());
  offsets_.reserve(messages.size() + 1);
  offsets_.push_back(0);
  priors_.reserve(messages.size());
  for (const auto& message : messages) {
    priors_.push_back(
        message.kind == workload::UpdateKind::kAnnounce
            ? fib_.announce(message.prefix, message.next_hop, journal_)
            : fib_.withdraw(message.prefix, journal_));
    offsets_.push_back(journal_.size());
  }
  sample_.ttf.ttf1_ns = elapsed_ns(start);
}

const CommitPlan& BatchTxn::admit(
    ChipSet& chips, const std::function<std::size_t()>& emergency_rebalance) {
  CommitPlan& plan = chips.plan();
  std::size_t keep = messages_.size();
  CoalesceStats stats;
  bool rebalanced = false;
  for (;;) {
    // Re-plan on every pass: a rebalance moves boundaries, which changes
    // every piece.
    const auto merged = coalesce_ops(
        std::span<const FibOp>(journal_).first(offsets_[keep]), &stats);
    if (plan_fits(merged, chips, plan) || keep == 0) break;
    if (!rebalanced) {
      rebalanced = true;
      if (emergency_rebalance && emergency_rebalance() > 0) continue;
    }
    --keep;
    // The rolled-back message's ops leave the journal; its inversion's
    // ops land past the kept prefix and are dropped with them.
    const auto& message = messages_[keep];
    if (priors_[keep]) {
      fib_.announce(message.prefix, *priors_[keep], journal_);
    } else if (message.kind == workload::UpdateKind::kAnnounce) {
      fib_.withdraw(message.prefix, journal_);
    }
    // A withdraw of an absent prefix has an empty diff: nothing to undo.
    journal_.resize(offsets_[keep]);
  }
  sample_.applied = keep;
  sample_.rejected = messages_.size() - keep;
  sample_.raw_ops = stats.raw_ops;
  sample_.merged_ops = stats.merged_ops;
  return plan;
}

std::size_t BatchTxn::effective() const {
  std::size_t count = 0;
  for (std::size_t k = 0; k < sample_.applied; ++k) {
    if (offsets_[k + 1] != offsets_[k]) ++count;
  }
  return count;
}

}  // namespace clue::update
