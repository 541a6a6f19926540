#include "views/refinement_worklist.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>

#include "obs/metrics.hpp"

namespace rdv::views {

using graph::Graph;
using graph::Node;
using graph::Port;

namespace {

// Registered at load, so every snapshot carries them, zero included.
obs::Counter& worklist_computes =
    obs::counter("views.refine_worklist_computes");
obs::Counter& splits = obs::counter("views.refine_splits");
obs::Counter& pops = obs::counter("views.refine_worklist_pops");

}  // namespace

std::uint64_t refine_worklist_compute_count() {
  return worklist_computes.value();
}

ViewClasses WorklistRefiner::refine(const Graph& g) {
  const std::uint32_t n = g.size();
  ViewClasses out;
  out.class_of.assign(n, 0);
  if (n == 0) return out;
  worklist_computes.add();
  const Port maxdeg = g.max_degree();

  // Seed: the full degree/port-signature partition. The final stable
  // partition refines it (stable classes agree on degree and on every
  // reverse port), and folding the reverse ports into the seed is what
  // lets the splitter letters track only succ(v, p)'s class — the
  // letter alphabet is just the ports. Ids come from a first-occurrence
  // map over the per-node reverse-port vectors (degree is implicit in
  // the vector length); seed id order does not matter, the final
  // relabel re-canonicalizes.
  blocks_.clear();
  {
    std::map<std::vector<std::uint32_t>, std::uint32_t> seed_ids;
    std::vector<std::uint32_t> sig;
    block_of_.assign(n, 0);
    for (Node v = 0; v < n; ++v) {
      sig.clear();
      for (const graph::HalfEdge& e : g.edges(v)) sig.push_back(e.rev_port);
      const auto [it, _] =
          seed_ids.try_emplace(sig, static_cast<std::uint32_t>(seed_ids.size()));
      block_of_[v] = it->second;
    }
    const auto seed_count = static_cast<std::uint32_t>(seed_ids.size());
    // Group nodes_ by seed block (node order within a block) via one
    // counting pass; canon_ doubles as the size/cursor scratch here.
    canon_.assign(seed_count + 1, 0);
    for (Node v = 0; v < n; ++v) ++canon_[block_of_[v] + 1];
    std::uint32_t off = 0;
    for (std::uint32_t b = 0; b < seed_count; ++b) {
      const std::uint32_t size = canon_[b + 1];
      blocks_.push_back(Block{off, off + size, 0, 1});
      canon_[b] = off;  // running fill cursor per block
      off += size;
    }
    nodes_.resize(n);
    pos_.resize(n);
    for (Node v = 0; v < n; ++v) {
      const std::uint32_t slot = canon_[block_of_[v]]++;
      nodes_[slot] = v;
      pos_[v] = slot;
    }
  }

  // Reverse adjacency as a flat CSR keyed by (node, port), the
  // shrink_all_pairs layout: rev_nodes_[rev_off_[w*maxdeg+p] ..] holds
  // every v with succ(v, p) == w.
  rev_off_.assign(static_cast<std::size_t>(n) * maxdeg + 1, 0);
  for (Node v = 0; v < n; ++v)
    for (Port p = 0; p < g.degree(v); ++p)
      ++rev_off_[static_cast<std::size_t>(g.step(v, p).to) * maxdeg + p + 1];
  for (std::size_t i = 1; i < rev_off_.size(); ++i)
    rev_off_[i] += rev_off_[i - 1];
  rev_nodes_.resize(rev_off_.back());
  {
    std::vector<std::uint32_t> cursor(rev_off_.begin(), rev_off_.end() - 1);
    for (Node v = 0; v < n; ++v)
      for (Port p = 0; p < g.degree(v); ++p)
        rev_nodes_[cursor[static_cast<std::size_t>(g.step(v, p).to) * maxdeg +
                          p]++] = v;
  }

  // Every block enters the worklist exactly once, when it is created
  // (all seed blocks now, later only the smaller half of each split),
  // and is processed against every letter when popped. This coarsens
  // the classic (block, letter) bookkeeping to block granularity:
  // - split of an UNPROCESSED block: the shrunk original is still
  //   queued and the new half is pushed, so both halves get processed
  //   (the classic "replace by both") ;
  // - split of a PROCESSED block: only the new half — which is always
  //   the smaller — is pushed (the classic "add the smaller half").
  // A node's queued block at least halves between consecutive pushes,
  // so each node is scanned as splitter material O(log n) times:
  // O(m log n) total splitter work.
  queue_.clear();
  for (std::uint32_t b = 0; b < blocks_.size(); ++b) queue_.push_back(b);
  std::uint64_t local_pops = 0;
  std::uint64_t local_splits = 0;
  std::uint32_t waves = 0;
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::uint32_t b = queue_[head];
    ++local_pops;
    waves = std::max(waves, blocks_[b].gen);
    for (Port p = 0; p < maxdeg; ++p) {
      // Snapshot the letter's preimage of b BEFORE any split: b itself
      // may be among the touched blocks, and splitting it mid-scan
      // would corrupt the iteration.
      preimage_.clear();
      const std::uint32_t sb = blocks_[b].begin;
      const std::uint32_t se = blocks_[b].end;
      for (std::uint32_t i = sb; i < se; ++i) {
        const std::size_t base =
            static_cast<std::size_t>(nodes_[i]) * maxdeg + p;
        for (std::uint32_t j = rev_off_[base]; j < rev_off_[base + 1]; ++j) {
          preimage_.push_back(rev_nodes_[j]);
        }
      }
      if (preimage_.empty()) continue;
      // Mark: move each preimage node into its block's marked prefix.
      touched_.clear();
      for (const Node v : preimage_) {
        const std::uint32_t d = block_of_[v];
        Block& blk = blocks_[d];
        if (blk.end - blk.begin == 1) continue;  // singletons never split
        if (blk.marked == 0) touched_.push_back(d);
        const std::uint32_t i = pos_[v];
        const std::uint32_t j = blk.begin + blk.marked;
        if (i != j) {
          const Node other = nodes_[j];
          nodes_[j] = v;
          nodes_[i] = other;
          pos_[v] = j;
          pos_[other] = i;
        }
        ++blk.marked;
      }
      // Split every partially-marked block; the smaller half becomes
      // the NEW block (and the only one pushed).
      for (const std::uint32_t d : touched_) {
        const std::uint32_t size = blocks_[d].end - blocks_[d].begin;
        const std::uint32_t marked = blocks_[d].marked;
        blocks_[d].marked = 0;
        if (marked == size) continue;  // the whole block moved together
        ++local_splits;
        const std::uint32_t mid = blocks_[d].begin + marked;
        const auto nb = static_cast<std::uint32_t>(blocks_.size());
        const std::uint32_t next_gen = blocks_[b].gen + 1;
        Block fresh;
        if (marked <= size - marked) {
          fresh = Block{blocks_[d].begin, mid, 0, next_gen};
          blocks_[d].begin = mid;
        } else {
          fresh = Block{mid, blocks_[d].end, 0, next_gen};
          blocks_[d].end = mid;
        }
        blocks_.push_back(fresh);  // may invalidate refs; none held
        for (std::uint32_t i = fresh.begin; i < fresh.end; ++i) {
          block_of_[nodes_[i]] = nb;
        }
        queue_.push_back(nb);
      }
    }
  }
  pops.add(local_pops);
  splits.add(local_splits);

  // Canonical relabel: dense ids by first occurrence in node order —
  // the same rule the naive engine's per-round signature maps apply, so
  // class_of/class_count match it byte for byte.
  canon_.assign(blocks_.size(), static_cast<std::uint32_t>(-1));
  std::uint32_t next_id = 0;
  for (Node v = 0; v < n; ++v) {
    std::uint32_t& id = canon_[block_of_[v]];
    if (id == static_cast<std::uint32_t>(-1)) id = next_id++;
    out.class_of[v] = id;
  }
  out.class_count = next_id;
  out.rounds = waves;

  static obs::Histogram& rounds_hist = obs::histogram("views.refine_rounds");
  rounds_hist.observe(waves);
  return out;
}

ViewClasses compute_view_classes_worklist(const Graph& g) {
  // One refiner per thread: the pool's workers (and any caller thread)
  // keep their scratch arenas warm across cache computes and sweep
  // chunks alike.
  thread_local WorklistRefiner refiner;
  return refiner.refine(g);
}

}  // namespace rdv::views
