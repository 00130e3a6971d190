// Batched operations through the data path: the unit types of the staged
// batch pipeline (resolve -> group-by-partition -> grouped dispatch).
//
// A signaling event reaching the UDR is a multi-op LDAP request (bind +
// search + modify, 1-6 ops per procedure — paper §2.2); routing each op as
// its own resolve + hop wastes one location-stage lookup and one PoA ->
// storage round trip per op even when the whole request touches one
// partition. A BatchRequest carries every op of one such request;
// Router::RouteBatch resolves them all at the PoA-local location stage,
// groups them by owning partition and dispatches one grouped
// ReplicaSet::WriteBatch / ReadBatch per replica set, preserving per-key op
// order and returning one OpOutcome per op.

#ifndef UDR_ROUTING_BATCH_H_
#define UDR_ROUTING_BATCH_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "location/identity.h"
#include "obs/trace.h"
#include "replication/replica_set.h"
#include "storage/record.h"

namespace udr::routing {

/// One record mutation of a batched write op, expressed against the
/// subscriber (the record key is filled in by the resolution stage).
struct Mutation {
  enum class Kind { kSet, kRemove, kDeleteRecord };
  Kind kind = Kind::kSet;
  std::string attr;       ///< kSet / kRemove.
  storage::Value value;   ///< kSet only.
};

/// One operation of a batch: a whole-record read, a single-attribute read or
/// a write transaction, addressed by subscriber identity.
struct Operation {
  enum class Kind { kReadRecord, kReadAttribute, kWrite };
  Kind kind = Kind::kReadRecord;
  location::Identity identity;
  std::string attr;                 ///< kReadAttribute.
  std::vector<Mutation> mutations;  ///< kWrite (applied atomically).
  replication::ReadPreference read_pref =
      replication::ReadPreference::kNearest;

  bool IsRead() const { return kind != Kind::kWrite; }

  static Operation ReadRecord(
      location::Identity id,
      replication::ReadPreference pref = replication::ReadPreference::kNearest) {
    Operation op;
    op.kind = Kind::kReadRecord;
    op.identity = std::move(id);
    op.read_pref = pref;
    return op;
  }
  static Operation ReadAttribute(
      location::Identity id, std::string attr,
      replication::ReadPreference pref = replication::ReadPreference::kNearest) {
    Operation op;
    op.kind = Kind::kReadAttribute;
    op.identity = std::move(id);
    op.attr = std::move(attr);
    op.read_pref = pref;
    return op;
  }
  static Operation Write(location::Identity id,
                         std::vector<Mutation> mutations) {
    Operation op;
    op.kind = Kind::kWrite;
    op.identity = std::move(id);
    op.mutations = std::move(mutations);
    return op;
  }
};

/// A multi-op request entering the pipeline as one unit.
struct BatchRequest {
  std::vector<Operation> ops;
  /// Advisory read projections, either empty or 1:1 with `ops`: a non-empty
  /// entry lists the only attributes a kReadRecord op's caller will look at,
  /// so the replica may copy just those out of the record. A side table and
  /// not an Operation field: every op of every batch pays for Operation's
  /// size, only projected Searches pay for this. Dropping a projection is
  /// always correct (the whole record is a superset), and the pipeline does
  /// so wherever it needs the whole record (see Router::DispatchGroup).
  std::vector<std::vector<storage::AttrId>> projections;
  /// Trace identity of the signaling event this batch serves; default
  /// (inactive) means every pipeline span is a no-op.
  obs::TraceContext trace;

  size_t size() const { return ops.size(); }
  bool empty() const { return ops.empty(); }
  BatchRequest& Add(Operation op) {
    ops.push_back(std::move(op));
    if (!projections.empty()) projections.emplace_back();
    return *this;
  }
  /// Adds a whole-record read restricted to `projection` (empty = none). A
  /// projection holds at any index, the first op of the batch included.
  BatchRequest& Add(Operation op, std::vector<storage::AttrId> projection) {
    if (projection.empty()) return Add(std::move(op));
    projections.resize(ops.size());
    projections.push_back(std::move(projection));
    ops.push_back(std::move(op));
    return *this;
  }
  void Clear() {
    ops.clear();
    projections.clear();
  }
  /// Projection of op `i`; nullptr when it has none (or the side table is
  /// not 1:1 with `ops`, which drops every projection).
  const std::vector<storage::AttrId>* ProjectionOf(size_t i) const {
    if (projections.size() != ops.size() || projections[i].empty()) {
      return nullptr;
    }
    return &projections[i];
  }
};

/// Per-op outcome; index i corresponds to BatchRequest::ops[i].
struct OpOutcome {
  Status status;
  uint32_t partition = 0;
  storage::RecordKey key = 0;
  bool bypassed_location = false;  ///< Hash fast path skipped the stage.
  bool from_cache = false;         ///< Read served by the PoA record cache.
  bool stale = false;              ///< Read served by a lagging slave copy.
  MicroDuration latency = 0;       ///< Op's own service share (no transit).
  uint32_t served_by = 0;          ///< Replica that executed the op.
  std::optional<storage::Record> record;  ///< kReadRecord payload.
  std::optional<storage::Value> value;    ///< kReadAttribute payload.
  storage::CommitSeq seq = 0;             ///< kWrite commit sequence.

  bool ok() const { return status.ok(); }
};

/// Aggregate outcome of one batch through the pipeline.
struct BatchResult {
  std::vector<OpOutcome> outcomes;  ///< 1:1 with the request's ops.
  /// Modelled end-to-end latency: resolution of every op plus the slowest
  /// partition-group dispatch (groups fan out concurrently from the PoA).
  MicroDuration latency = 0;
  MicroDuration resolve_cost = 0;  ///< Stage-1 total location-stage cost.
  int partition_groups = 0;        ///< Distinct replica sets dispatched to.
  int bypass_hits = 0;             ///< Ops routed via the hash fast path.
  int cache_hits = 0;              ///< Reads served by the PoA record cache.
  int failed_ops = 0;

  bool ok() const { return failed_ops == 0; }
};

}  // namespace udr::routing

#endif  // UDR_ROUTING_BATCH_H_
