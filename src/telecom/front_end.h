// Application front-ends (paper §2.2): stateless HLR-FE and HSS-FE processes
// that execute 3GPP network procedures by reading/writing subscriber data in
// the UDR over LDAP. Each procedure issues the LDAP operation count the
// paper quotes: 1-3 ops for typical mobile procedures, 5-6 for IMS.

#ifndef UDR_TELECOM_FRONT_END_H_
#define UDR_TELECOM_FRONT_END_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "location/identity.h"
#include "udr/udr_nf.h"

namespace udr::telecom {

/// Outcome of one network procedure.
struct ProcedureResult {
  Status status;
  MicroDuration latency = 0;  ///< Sum of the procedure's UDR op latencies.
  /// Share of `latency` spent parked in the PoA's cross-event dispatch
  /// window (deferred procedures only; 0 on the inline paths).
  MicroDuration queue_delay = 0;
  int ldap_ops = 0;           ///< LDAP operations issued.
  int failed_ops = 0;         ///< Operations that did not succeed.
  bool any_stale = false;     ///< Any read served stale from a slave copy.
  /// Set while the procedure is parked in the PoA coalescing window: the
  /// real outcome is collected with FrontEnd::TakeDeferred(*pending).
  std::optional<uint64_t> pending;

  bool ok() const { return status.ok(); }
  bool deferred() const { return pending.has_value(); }
};

/// Common base: a front-end instance deployed at a site, talking to the UDR.
///
/// A procedure's LDAP ops are declared up-front as a request list. In
/// sequential mode (default) the FE submits them one by one, stopping at the
/// first failure — one round trip per op. In batched mode the whole list
/// ships as ONE multi-op message riding the UDR's staged batch pipeline: all
/// ops execute (per-op error isolation replaces early abort) and the
/// procedure pays one client round trip plus one grouped dispatch per
/// touched partition.
class FrontEnd {
 public:
  FrontEnd(std::string name, sim::SiteId site, udrnf::UdrNf* udr,
           bool batched = false)
      : name_(std::move(name)), site_(site), udr_(udr), batched_(batched) {}
  virtual ~FrontEnd() = default;

  const std::string& name() const { return name_; }
  sim::SiteId site() const { return site_; }
  bool batched() const { return batched_; }
  void set_batched(bool batched) { batched_ = batched; }

  /// Deferred mode: procedures enqueue their op list into the UDR's PoA
  /// coalescing window (UdrNf::SubmitEvent) instead of executing inline and
  /// return a ProcedureResult whose `pending` handle names the parked event.
  /// Collect the real outcome with TakeDeferred once the window flushed.
  void set_deferred(bool deferred) { deferred_ = deferred; }

  /// Collects a deferred procedure's outcome; nullopt while its dispatch
  /// window is still open (pump the UDR and retry).
  std::optional<ProcedureResult> TakeDeferred(uint64_t handle);

  int64_t procedures_ok() const { return procedures_ok_; }
  int64_t procedures_failed() const { return procedures_failed_; }

 protected:
  /// Builds a read of the subscriber entry (projected to `attrs`, empty = all).
  ldap::LdapRequest MakeRead(const location::Identity& id,
                             std::vector<std::string> attrs) const;
  /// Builds a replace of one attribute of the subscriber entry.
  ldap::LdapRequest MakeWrite(const location::Identity& id,
                              const std::string& attr,
                              storage::Value value) const;

  /// Executes one procedure's ops: one multi-op message when batched,
  /// sequential submits (aborting on first failure) otherwise. Counts the
  /// procedure. Takes the op list: the deferred path moves it down the
  /// enqueue chain into the parked event.
  ProcedureResult RunOps(std::vector<ldap::LdapRequest> requests);

  /// Folds an LDAP result into a procedure result.
  static void Fold(const ldap::LdapResult& r, ProcedureResult* out);

  /// Folds a whole multi-op message: per-op results score failure/staleness,
  /// the procedure latency is the batch's end-to-end latency (not a per-op
  /// sum). Shared by the batched and deferred paths.
  static void FoldBatch(const ldap::LdapBatchResult& batch,
                        ProcedureResult* out);

  void Count(const ProcedureResult& r) {
    if (r.ok()) ++procedures_ok_;
    else ++procedures_failed_;
  }

  std::string name_;
  sim::SiteId site_;
  udrnf::UdrNf* udr_;
  bool batched_ = false;
  bool deferred_ = false;
  int64_t procedures_ok_ = 0;
  int64_t procedures_failed_ = 0;
};

/// HLR front-end: GSM/LTE circuit & packet domain procedures.
class HlrFe : public FrontEnd {
 public:
  HlrFe(sim::SiteId site, udrnf::UdrNf* udr, bool batched = false)
      : FrontEnd("hlr-fe-" + std::to_string(site), site, udr, batched) {}

  /// Authentication info retrieval (MAP SAI): 1 read.
  ProcedureResult Authenticate(const location::Identity& id);

  /// Location update (MAP UL): 1 read + 1 write. Registers the serving VLR.
  ProcedureResult UpdateLocation(const location::Identity& id,
                                 const std::string& vlr_address,
                                 int64_t location_area);

  /// Mobile-terminated call setup (MAP SRI): 2 reads (routing + barring).
  ProcedureResult SendRoutingInfo(const location::Identity& id);

  /// Mobile-originated SMS routing check: 1 read.
  ProcedureResult SmsRouting(const location::Identity& id);

  /// Supplementary service interrogation (e.g. CFU state): 1 read.
  ProcedureResult InterrogateSs(const location::Identity& id);
};

/// HSS front-end: IMS Cx procedures ("somewhat heavier": 5-6 ops each).
class HssFe : public FrontEnd {
 public:
  HssFe(sim::SiteId site, udrnf::UdrNf* udr, bool batched = false)
      : FrontEnd("hss-fe-" + std::to_string(site), site, udr, batched) {}

  /// IMS initial registration (Cx UAR/MAR/SAR): 4 reads + 2 writes.
  ProcedureResult ImsRegister(const location::Identity& impu,
                              const std::string& scscf_name);

  /// IMS terminating request (Cx LIR + profile): 2 reads.
  ProcedureResult ImsLocate(const location::Identity& impu);

  /// IMS de-registration (Cx SAR): 1 read + 1 write.
  ProcedureResult ImsDeregister(const location::Identity& impu);
};

}  // namespace udr::telecom

#endif  // UDR_TELECOM_FRONT_END_H_
