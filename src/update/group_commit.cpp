#include "update/group_commit.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "engine/indexing_logic.hpp"

namespace clue::update {

namespace {

using Clock = std::chrono::steady_clock;
using netbase::NextHop;
using netbase::Prefix;
using netbase::Route;
using onrtc::FibOp;
using onrtc::FibOpKind;

/// Per-prefix fold state: what the table held when the burst first
/// touched the prefix, and what it holds now.
struct Fold {
  Prefix prefix;
  bool initially_present = false;
  /// Known only when the first op was a delete (its route carries the
  /// old hop); a first-op modify leaves it unknown.
  bool initial_hop_known = false;
  NextHop initial_hop{};
  bool present = false;
  NextHop hop{};
  /// The old hop the most recent delete op carried, for emitting a net
  /// delete after a modify-then-delete sequence.
  NextHop deleted_hop{};
};

/// Expands `merged` into `plan` at the host's current boundaries and
/// returns whether every chip's exact projected occupancy fits.
bool plan_fits(std::span<const FibOp> merged, const CommitHost& host,
               CommitPlan& plan) {
  const std::size_t chips = host.boundaries.size() + 1;
  plan.chips.assign(chips, ChipWork{});
  plan.dred_erase.clear();
  plan.dred_fix.clear();
  // An insert's prefix is new to the compressed table, so a stored shape
  // one of its pieces coincides with belongs to a region the same plan
  // deletes: every insert piece adds exactly one entry.
  std::vector<std::size_t> added(chips, 0);

  for (const auto& op : merged) {
    const auto pieces =
        engine::split_at_boundaries(op.route.prefix, host.boundaries);
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
      for (const Route& stored : host.stored_within(chip, op.route.prefix)) {
        if (op.kind == FibOpKind::kDelete) {
          plan.chips[chip].erases.push_back(stored.prefix);
          plan.dred_erase.push_back(stored.prefix);
        } else {
          const Route fixed{stored.prefix, op.route.next_hop};
          plan.chips[chip].writes.push_back(fixed);
          plan.dred_fix.push_back(fixed);
        }
      }
    }
  }
  for (std::size_t chip = 0; chip < chips; ++chip) {
    const std::size_t projected = host.occupancy(chip) -
                                  plan.chips[chip].erases.size() +
                                  added[chip];
    if (projected > host.capacity) return false;
  }
  return true;
}

}  // namespace

std::vector<FibOp> coalesce_ops(std::span<const FibOp> raw,
                                CoalesceStats* stats) {
  // First-touch order keeps the emitted stream deterministic (and equal
  // to the raw stream whenever nothing coalesces).
  std::vector<Fold> folds;
  folds.reserve(raw.size());
  std::unordered_map<Prefix, std::size_t> index;
  index.reserve(raw.size());

  for (const auto& op : raw) {
    const auto [it, fresh] =
        index.try_emplace(op.route.prefix, folds.size());
    if (fresh) {
      Fold fold;
      fold.prefix = op.route.prefix;
      // The first op tells us the initial state: an insert means the
      // prefix was absent; a delete/modify means it was present.
      fold.initially_present = op.kind != FibOpKind::kInsert;
      if (op.kind == FibOpKind::kDelete) {
        fold.initial_hop_known = true;
        fold.initial_hop = op.route.next_hop;  // delete carries the old hop
      }
      folds.push_back(fold);
    }
    Fold& fold = folds[it->second];
    switch (op.kind) {
      case FibOpKind::kInsert:
      case FibOpKind::kModify:
        fold.present = true;
        fold.hop = op.route.next_hop;
        break;
      case FibOpKind::kDelete:
        fold.present = false;
        fold.deleted_hop = op.route.next_hop;
        break;
    }
  }

  std::vector<FibOp> merged;
  merged.reserve(folds.size());
  for (const Fold& fold : folds) {
    if (!fold.initially_present && fold.present) {
      merged.push_back(
          FibOp{FibOpKind::kInsert, Route{fold.prefix, fold.hop}});
    } else if (fold.initially_present && !fold.present) {
      // Carry whichever old hop we know — consumers erase by prefix and
      // only report the hop, so either the initial or the last-deleted
      // value is faithful.
      const NextHop old_hop =
          fold.initial_hop_known ? fold.initial_hop : fold.deleted_hop;
      merged.push_back(
          FibOp{FibOpKind::kDelete, Route{fold.prefix, old_hop}});
    } else if (fold.initially_present && fold.present) {
      // Present throughout: a net modify, unless we can prove the hop
      // came back to where it started (first op was a delete, so the
      // initial hop is known).
      if (!(fold.initial_hop_known && fold.initial_hop == fold.hop)) {
        merged.push_back(
            FibOp{FibOpKind::kModify, Route{fold.prefix, fold.hop}});
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

std::size_t auto_capacity(std::size_t share, double headroom) {
  return static_cast<std::size_t>(static_cast<double>(share) *
                                  (1.0 + std::max(headroom, 0.0))) +
         8192;
}

void require_capacity(const char* host, std::size_t capacity,
                      std::size_t share) {
  if (share > capacity) {
    throw std::invalid_argument(std::string(host) + ": capacity " +
                                std::to_string(capacity) +
                                " is below the initial share " +
                                std::to_string(share));
  }
}

BatchTxn::BatchTxn(onrtc::CompressedFib& fib,
                   std::span<const workload::UpdateMsg> messages)
    : fib_(fib), messages_(messages) {
  const auto start = Clock::now();
  per_msg_.reserve(messages.size());
  priors_.reserve(messages.size());
  for (const auto& message : messages) {
    priors_.push_back(fib_.ground_truth().find(message.prefix));
    per_msg_.push_back(message.kind == workload::UpdateKind::kAnnounce
                           ? fib_.announce(message.prefix, message.next_hop)
                           : fib_.withdraw(message.prefix));
  }
  sample_.ttf.ttf1_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

const CommitPlan& BatchTxn::admit(const CommitHost& host) {
  std::size_t keep = messages_.size();
  std::vector<FibOp> raw;
  CoalesceStats stats;
  bool rebalanced = false;
  for (;;) {
    raw.clear();
    for (std::size_t k = 0; k < keep; ++k) {
      raw.insert(raw.end(), per_msg_[k].begin(), per_msg_[k].end());
    }
    // Re-plan on every pass: a rebalance moves boundaries, which changes
    // every piece.
    const auto merged = coalesce_ops(raw, &stats);
    if (plan_fits(merged, host, plan_) || keep == 0) break;
    if (!rebalanced) {
      rebalanced = true;
      if (host.emergency_rebalance && host.emergency_rebalance() > 0) {
        continue;
      }
    }
    --keep;
    const auto& message = messages_[keep];
    if (priors_[keep]) {
      fib_.announce(message.prefix, *priors_[keep]);
    } else if (message.kind == workload::UpdateKind::kAnnounce) {
      fib_.withdraw(message.prefix);
    }
    // A withdraw of an absent prefix has an empty diff: nothing to undo.
  }
  sample_.applied = keep;
  sample_.rejected = messages_.size() - keep;
  sample_.raw_ops = stats.raw_ops;
  sample_.merged_ops = stats.merged_ops;
  return plan_;
}

std::size_t BatchTxn::effective() const {
  std::size_t count = 0;
  for (std::size_t k = 0; k < sample_.applied; ++k) {
    if (!per_msg_[k].empty()) ++count;
  }
  return count;
}

}  // namespace clue::update
