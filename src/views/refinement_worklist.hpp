#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "views/refinement.hpp"

/// Splitter-worklist partition refinement (ISSUE 8 tentpole).
///
/// The naive engine in refinement.cpp re-hashes every node's full
/// signature every round — O(n^2 * m) on graphs whose partition takes
/// many rounds to stabilize, and the census bottleneck once Shrink went
/// batched. This engine is the classic smaller-half worklist scheme
/// (Hopcroft / Paige–Tarjan, as used by DFA-minimization and
/// bisimulation engines): blocks are contiguous index ranges over one
/// flat node permutation, the partition is seeded with the full
/// degree/port-signature classes, and each popped block is used as a
/// splitter against the port-labeled reverse adjacency (the same flat
/// (node, port)-keyed CSR idiom as shrink_all_pairs). When a block
/// splits, the SMALLER half becomes the new block and is the only one
/// (re-)queued, so every node changes queued-block at most O(log n)
/// times and the total splitter work is O(m log n).
///
/// Contract: the stable partition is the same coarsest one the naive
/// engine computes, and class ids are canonicalized the same way
/// (dense, first occurrence in node order), so `class_of` and
/// `class_count` are byte-identical to the oracle — fingerprints, the
/// kViewClasses codec, cached artifacts, and every quotient/UXS
/// consumer are untouched. `rounds` is the engine's own work measure
/// (worklist waves; see ViewClasses::rounds).
namespace rdv::views {

/// Reusable refinement engine: all block/worklist/reverse-CSR scratch
/// buffers live in the instance and are recycled across refine() calls,
/// so batch workloads (census sweeps, fuzz loops) do no per-graph
/// allocation churn once the high-water graph size has been seen.
/// Not thread-safe; use one instance per thread
/// (compute_view_classes_worklist keeps one per thread).
class WorklistRefiner {
 public:
  /// Computes the stable view-equivalence partition of g.
  [[nodiscard]] ViewClasses refine(const graph::Graph& g);

 private:
  /// One block: the contiguous range nodes_[begin, end); the marked
  /// prefix nodes_[begin, begin + marked) holds the members hit by the
  /// current splitter letter. `gen` is the worklist wave that queued
  /// the block (seed blocks are wave 1) — max over popped blocks is
  /// the reported `rounds`.
  struct Block {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t marked = 0;
    std::uint32_t gen = 0;
  };

  // Flat partition state: nodes_ is a permutation of 0..n-1 grouped by
  // block, pos_ its inverse, block_of_[v] the block id owning v.
  std::vector<std::uint32_t> nodes_;
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint32_t> block_of_;
  std::vector<Block> blocks_;
  /// FIFO worklist of block ids; every block is queued exactly once
  /// (at creation), so a plain vector + head cursor suffices.
  std::vector<std::uint32_t> queue_;
  // Reverse adjacency CSR keyed by (node, port), shrink_all_pairs
  // style: rev_nodes_[rev_off_[w * maxdeg + p] ..] = all v with
  // succ(v, p) == w.
  std::vector<std::uint32_t> rev_off_;
  std::vector<graph::Node> rev_nodes_;
  /// Splitter scratch: the letter's preimage snapshot and the blocks it
  /// marked.
  std::vector<graph::Node> preimage_;
  std::vector<std::uint32_t> touched_;
  /// Canonical relabel table (block id -> dense first-occurrence id).
  std::vector<std::uint32_t> canon_;
};

/// Worklist refinement through a per-thread reusable WorklistRefiner
/// (the production engine behind compute_view_classes).
[[nodiscard]] ViewClasses compute_view_classes_worklist(const graph::Graph& g);

/// The views.refine_worklist_computes registry counter (refinements
/// run), read by the perfbench harness. Refinement also counts
/// views.refine_splits and views.refine_worklist_pops.
[[nodiscard]] std::uint64_t refine_worklist_compute_count();

}  // namespace rdv::views
