#pragma once
// The Distributed Systems Memex and the design-provenance formalism
// (paper challenges C6 and C8).
//
// C6 proposes a Memex archiving "large amounts of operational traces
// collected from the distributed systems that currently underpin our
// society", extended with "the preservation of original designs and of
// their origins ... the decisions that lead to them". C8 asks for "a
// formalism for documenting designs" that can trace their evolution
// without stifling creativity. This module provides both:
//  * DecisionRecord / ProvenanceGraph — a DAG of design decisions, each
//    recording the alternatives considered, the rationale, and the
//    decisions it supersedes, so a design's lineage is queryable;
//  * Memex — a catalog pairing operational-trace datasets (referenced by
//    id) with the provenance graphs of the designs that produced or
//    consumed them.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace atlarge::design {

using DecisionId = std::uint32_t;

/// One documented design decision.
struct DecisionRecord {
  DecisionId id = 0;
  std::string title;              // e.g. "piece size = 256 KiB"
  std::string rationale;          // why this alternative won
  std::vector<std::string> alternatives;  // options considered and rejected
  std::vector<DecisionId> supersedes;     // earlier decisions this replaces
  int year = 0;                   // provenance timestamp
  std::string author;             // designer or team
};

/// A DAG of decisions: edges point from a decision to the decisions it
/// supersedes. Append-only, id-checked, cycle-free by construction
/// (a decision may only supersede already-recorded decisions).
class ProvenanceGraph {
 public:
  /// Records a decision; its id is assigned and returned. Throws
  /// std::invalid_argument if it supersedes an unknown decision.
  DecisionId record(DecisionRecord record);

  std::size_t size() const noexcept { return records_.size(); }
  const DecisionRecord& get(DecisionId id) const;

  /// Decisions that are current (not superseded by any later decision).
  std::vector<DecisionId> active() const;

  /// The full lineage of a decision: every decision transitively
  /// superseded by it, oldest first.
  std::vector<DecisionId> lineage(DecisionId id) const;

  /// Number of revisions a decision chain went through: lineage length.
  std::size_t revision_depth(DecisionId id) const;

  /// All decisions by a given author.
  std::vector<DecisionId> by_author(const std::string& author) const;

 private:
  std::vector<DecisionRecord> records_;
};

/// A Memex entry ties a designed system to its provenance and to the
/// operational-trace datasets (by dataset id) that informed or evaluated
/// it.
struct MemexEntry {
  std::string system;             // e.g. "Tribler", "Graphalytics"
  ProvenanceGraph provenance;
  std::vector<std::string> trace_dataset_ids;
  int first_year = 0;
  int last_year = 0;
};

class Memex {
 public:
  /// Adds an entry; returns false if the system name is taken.
  bool add(MemexEntry entry);
  std::size_t size() const noexcept { return entries_.size(); }
  const MemexEntry* find(const std::string& system) const;

  /// Systems whose activity overlaps [from, to].
  std::vector<std::string> active_between(int from, int to) const;

  /// Total decisions preserved across all systems — the heritage the
  /// paper warns is being lost.
  std::size_t decisions_preserved() const noexcept;

 private:
  std::vector<MemexEntry> entries_;
};

/// A worked Memex for this repository's own substrates: the P2P,
/// Graphalytics, and portfolio-scheduling lines of work with their key
/// published decisions, as recorded in the paper's Section 6.
Memex paper_memex();

}  // namespace atlarge::design
