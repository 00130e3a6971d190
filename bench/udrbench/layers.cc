#include "layers.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ldap/dn.h"
#include "obs/trace.h"
#include "replication/write_builder.h"
#include "routing/coalescer.h"
#include "scenario/verifier.h"
#include "storage/commit_log.h"
#include "storage/record_store.h"
#include "telecom/front_end.h"
#include "telecom/provisioning.h"
#include "telecom/subscriber.h"
#include "workload/testbed.h"
#include "workload/zipf.h"
#include "workloads.h"

namespace udrbench {

namespace {

namespace attr = udr::telecom::attr;
using udr::location::Identity;
using udr::location::IdentityType;
using udr::storage::Value;

/// Every kth procedure of the stream becomes host spans at each boundary.
constexpr int64_t kSpanEvery = 64;

enum class Kind {
  kAuthenticate,
  kUpdateLocation,
  kRoutingInfo,
  kSmsRouting,
  kInterrogateSs,
  kImsRegister,
  kImsLocate,
  kImsDeregister,
  kPsCallForwarding,
  kPsBarring,
};

/// One signaling event or PS operation of the stream.
struct Procedure {
  Kind kind = Kind::kAuthenticate;
  uint64_t index = 0;  ///< Subscriber.
  udr::sim::SiteId site = 0;
  int64_t stamp = 0;
  bool flag = false;
  Identity imsi;
  Identity msisdn;
  Identity impu;
};

/// One LDAP op of a procedure in a form every boundary can be fed from.
struct Op {
  bool write = false;
  bool master_only = false;
  Identity id;
  std::vector<std::string> attrs;                     ///< Read projection.
  std::vector<std::pair<std::string, Value>> sets;    ///< Write payload.
};

Op Read(const Identity& id, std::vector<std::string> attrs,
        bool master_only = false) {
  Op op;
  op.id = id;
  op.attrs = std::move(attrs);
  op.master_only = master_only;
  return op;
}

Op Write(const Identity& id, std::vector<std::pair<std::string, Value>> sets,
         bool master_only = false) {
  Op op;
  op.write = true;
  op.id = id;
  op.sets = std::move(sets);
  op.master_only = master_only;
  return op;
}

/// The op list of each procedure. HlrFe / HssFe / ProvisioningSystem build
/// these lists privately, so the lower boundaries get them restated here,
/// op for op.
std::vector<Op> OpsOf(const Procedure& p) {
  const std::string site = std::to_string(p.site);
  switch (p.kind) {
    case Kind::kAuthenticate:
      return {Read(p.imsi, {attr::kAuthKey, attr::kSqn})};
    case Kind::kUpdateLocation:
      return {Read(p.imsi, {attr::kRoamingAllowed, attr::kCategory}),
              Write(p.imsi, {{attr::kServingVlr, std::string("vlr" + site)},
                             {attr::kLocationArea, p.stamp}})};
    case Kind::kRoutingInfo:
      return {Read(p.msisdn, {attr::kServingVlr, attr::kLocationArea}),
              Read(p.msisdn,
                   {attr::kOdbPremium, attr::kCallForwardingUncond})};
    case Kind::kSmsRouting:
      return {Read(p.msisdn, {attr::kServingVlr, attr::kTeleservices})};
    case Kind::kInterrogateSs:
      return {Read(p.msisdn, {attr::kCallForwardingUncond})};
    case Kind::kImsRegister:
      return {Read(p.impu, {attr::kImpi, attr::kRegistrationState}),
              Read(p.impu, {attr::kAuthKey, attr::kSqn}),
              Write(p.impu, {{attr::kServingCscf, std::string("scscf" + site)}}),
              Write(p.impu, {{attr::kRegistrationState,
                              std::string("registered")}}),
              Read(p.impu, {attr::kTeleservices, attr::kOdbPremium}),
              Read(p.impu, {attr::kChargingProfile})};
    case Kind::kImsLocate:
      return {Read(p.impu, {attr::kServingCscf}),
              Read(p.impu, {attr::kRegistrationState})};
    case Kind::kImsDeregister:
      return {Read(p.impu, {attr::kRegistrationState}),
              Write(p.impu, {{attr::kRegistrationState,
                              std::string("deregistered")}})};
    case Kind::kPsCallForwarding:
      return {Read(p.imsi, {attr::kCallForwardingUncond, attr::kCategory},
                   true),
              Write(p.imsi,
                    {{attr::kCallForwardingUncond,
                      udr::scenario::CfuNumberOf(p.stamp)}},
                    true)};
    case Kind::kPsBarring:
      return {Write(p.imsi, {{attr::kOdbPremium, p.flag}}, true)};
  }
  return {};
}

const char* DnAttr(IdentityType type) {
  switch (type) {
    case IdentityType::kImsi:
      return "imsi";
    case IdentityType::kMsisdn:
      return "msisdn";
    case IdentityType::kImpu:
      return "impu";
    case IdentityType::kImpi:
      return "impi";
  }
  return "imsi";
}

udr::ldap::LdapRequest ToLdap(const Op& op) {
  udr::ldap::LdapRequest req;
  req.dn = udr::ldap::SubscriberDn(DnAttr(op.id.type), op.id.value);
  req.master_only = op.master_only;
  if (op.write) {
    req.op = udr::ldap::LdapOp::kModify;
    for (const auto& [name, value] : op.sets) {
      req.mods.push_back(
          udr::ldap::Modification{udr::ldap::ModType::kReplace, name, value});
    }
  } else {
    req.op = udr::ldap::LdapOp::kSearch;
    req.scope = udr::ldap::SearchScope::kBaseObject;
    req.requested_attrs = op.attrs;
  }
  return req;
}

udr::replication::ReadPreference PrefOf(const Op& op) {
  return op.master_only ? udr::replication::ReadPreference::kMasterOnly
                        : udr::replication::ReadPreference::kNearest;
}

udr::routing::BatchRequest ToBatch(const std::vector<Op>& ops) {
  udr::routing::BatchRequest batch;
  for (const Op& op : ops) {
    if (!op.write) {
      batch.Add(udr::routing::Operation::ReadRecord(op.id, PrefOf(op)));
      continue;
    }
    std::vector<udr::routing::Mutation> muts;
    for (const auto& [name, value] : op.sets) {
      udr::routing::Mutation m;
      m.attr = name;
      m.value = value;
      muts.push_back(std::move(m));
    }
    batch.Add(udr::routing::Operation::Write(op.id, std::move(muts)));
  }
  return batch;
}

std::vector<Procedure> MakeStream(const ReplayMix& mix, uint64_t seed,
                                  const udr::workload::Testbed& bed,
                                  uint64_t population) {
  const udr::scenario::ScenarioSpec& spec = mix.spec;
  udr::Rng rng(seed ^ 0x1a7e5eedULL);
  udr::workload::ZipfGenerator pick(population, spec.zipf_theta);
  std::vector<Procedure> stream;
  stream.reserve(static_cast<size_t>(mix.procedures));
  for (int64_t i = 0; i < mix.procedures; ++i) {
    Procedure p;
    p.stamp = i + 1;
    // The draw mirrors scenario::Engine's FE tick and PS tick.
    const double u = rng.NextDouble();
    if (u < mix.ps_share) {
      p.index = rng.Uniform(population);
      p.site = spec.ps_site;
      p.kind = rng.NextDouble() < 0.6 ? Kind::kPsCallForwarding
                                      : Kind::kPsBarring;
      p.flag = rng.Bernoulli(0.5);
    } else {
      p.index = pick.Next(rng);
      p.site = bed.HomeSiteOf(p.index);
      if (u < mix.ps_share + mix.storm_share) {
        p.kind = Kind::kUpdateLocation;
      } else if (rng.Bernoulli(spec.ims_fraction)) {
        const double d = rng.NextDouble();
        p.kind = d < 0.55   ? Kind::kImsLocate
                 : d < 0.80 ? Kind::kImsRegister
                            : Kind::kImsDeregister;
      } else {
        const double d = rng.NextDouble();
        p.kind = d < 0.35   ? Kind::kAuthenticate
                 : d < 0.55 ? Kind::kRoutingInfo
                 : d < 0.70 ? Kind::kSmsRouting
                 : d < 0.80 ? Kind::kInterrogateSs
                            : Kind::kUpdateLocation;
      }
    }
    const udr::telecom::Subscriber s = bed.factory().Make(p.index);
    p.imsi = s.ImsiId();
    p.msisdn = s.MsisdnId();
    p.impu = s.ImpuId();
    stream.push_back(std::move(p));
  }
  return stream;
}

/// The telecom-layer clients of one deployment.
struct FrontEnds {
  std::vector<std::unique_ptr<udr::telecom::HlrFe>> hlr;
  std::vector<std::unique_ptr<udr::telecom::HssFe>> hss;
  std::unique_ptr<udr::telecom::ProvisioningSystem> ps;

  udr::telecom::ProcedureResult Run(const Procedure& p) {
    udr::telecom::HlrFe& h = *hlr[p.site];
    udr::telecom::HssFe& i = *hss[p.site];
    switch (p.kind) {
      case Kind::kAuthenticate:
        return h.Authenticate(p.imsi);
      case Kind::kUpdateLocation:
        return h.UpdateLocation(p.imsi, "vlr" + std::to_string(p.site),
                                p.stamp);
      case Kind::kRoutingInfo:
        return h.SendRoutingInfo(p.msisdn);
      case Kind::kSmsRouting:
        return h.SmsRouting(p.msisdn);
      case Kind::kInterrogateSs:
        return h.InterrogateSs(p.msisdn);
      case Kind::kImsRegister:
        return i.ImsRegister(p.impu, "scscf" + std::to_string(p.site));
      case Kind::kImsLocate:
        return i.ImsLocate(p.impu);
      case Kind::kImsDeregister:
        return i.ImsDeregister(p.impu);
      case Kind::kPsCallForwarding:
        return ps->SetCallForwarding(p.index,
                                     udr::scenario::CfuNumberOf(p.stamp));
      case Kind::kPsBarring:
        return ps->SetPremiumBarring(p.index, p.flag);
    }
    return {};
  }
};

int64_t CalibrateTimerNs() {
  std::vector<int64_t> d(20001);
  for (int64_t& x : d) {
    const int64_t a = NowNs();
    x = NowNs() - a;
  }
  std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
  return d[d.size() / 2];
}

/// Times boundary calls into their BoundaryStat and keeps a sampled subset
/// as host spans, one Perfetto lane per boundary.
class Recorder {
 public:
  struct Lane {
    const char* name = "";
    BoundaryStat* stat = nullptr;
    udr::obs::Tracer* spans = nullptr;
  };

  explicit Recorder(ReplayResult* out)
      : out_(out), overhead_(out->timer_overhead_ns), origin_(NowNs()) {}
  // The lane tracers hold the address of clock_.
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  Lane LaneFor(const char* name) {
    auto it = lanes_.find(name);
    if (it != lanes_.end()) return it->second;
    udr::obs::Tracer::Options opt;
    opt.lane = static_cast<uint32_t>(tracers_.size());
    tracers_.push_back(std::make_unique<udr::obs::Tracer>(opt, &clock_));
    Lane lane{name, &out_->boundaries[name], tracers_.back().get()};
    lanes_.emplace(name, lane);
    return lane;
  }

  /// Host ns of `fn`, timer overhead removed; [*t0, *t1] the raw interval.
  template <typename Fn>
  int64_t Measure(Fn&& fn, int64_t* t0, int64_t* t1) {
    *t0 = NowNs();
    fn();
    *t1 = NowNs();
    return std::max<int64_t>(0, *t1 - *t0 - overhead_);
  }

  /// Records one call of `proc` that took `ns` within [t0, t1].
  void Add(const Lane& lane, int64_t proc, int64_t ns, int64_t t0,
           int64_t t1) {
    lane.stat->Add(ns);
    if (proc % kSpanEvery != 0) return;
    udr::obs::TraceContext ctx;
    ctx.trace_id = static_cast<uint64_t>(proc) + 1;
    ctx.sampled = true;
    lane.spans->RecordSpan(lane.name, ctx, (t0 - origin_) / 1000,
                           (t1 - origin_) / 1000);
  }

  template <typename Fn>
  void Time(const Lane& lane, int64_t proc, Fn&& fn) {
    int64_t t0 = 0;
    int64_t t1 = 0;
    const int64_t ns = Measure(fn, &t0, &t1);
    Add(lane, proc, ns, t0, t1);
  }

  std::string ExportSpans() const {
    udr::obs::Tracer::Options opt;
    udr::obs::Tracer merged(opt, &clock_);
    for (const auto& t : tracers_) merged.MergeFrom(*t);
    return merged.ExportChromeJson();
  }

 private:
  ReplayResult* out_;
  int64_t overhead_;
  int64_t origin_;
  udr::sim::SimClock clock_;  ///< Unused by RecordSpan; the Tracer needs one.
  std::vector<std::unique_ptr<udr::obs::Tracer>> tracers_;
  std::map<std::string, Lane> lanes_;
};

/// A storage element that holds no copy of `rs`'s partition, or nullptr.
udr::storage::StorageElement* MigrationTarget(udr::udrnf::UdrNf& udr,
                                              udr::replication::ReplicaSet* rs) {
  for (uint32_t c = 0; c < udr.cluster_count(); ++c) {
    for (const auto& se : udr.cluster(c)->storage_elements()) {
      bool hosts = false;
      for (uint32_t r = 0; r < rs->replica_count(); ++r) {
        hosts = hosts || rs->replica_se(r) == se.get();
      }
      if (!hosts) return se.get();
    }
  }
  return nullptr;
}

int64_t SumApplied(udr::udrnf::UdrNf& udr) {
  int64_t sum = 0;
  for (uint32_t p = 0; p < udr.partition_count(); ++p) {
    udr::replication::ReplicaSet* rs = udr.partition(p);
    for (uint32_t r = 0; r < rs->replica_count(); ++r) {
      sum += static_cast<int64_t>(rs->applied_seq(r));
    }
  }
  return sum;
}

}  // namespace

ReplayResult ReplayLayers(const ReplayMix& mix, uint64_t seed,
                          double budget_s) {
  ReplayResult out;
  out.timer_overhead_ns = CalibrateTimerNs();
  Recorder rec(&out);

  // A fresh deployment of the workload's shape, provisioned call by call.
  udr::workload::TestbedOptions opts = mix.spec.testbed;
  const uint64_t population =
      static_cast<uint64_t>(std::max<int64_t>(1, opts.subscribers));
  opts.subscribers = 0;
  opts.udr.trace_sample_rate = 0;
  udr::workload::Testbed bed(opts);
  udr::udrnf::UdrNf& udr = bed.udr();
  udr::routing::Router& router = udr.router();
  {
    const Recorder::Lane create = rec.LaneFor("udr.create");
    for (uint64_t i = 0; i < population; ++i) {
      std::optional<udr::sim::SiteId> home;
      if (opts.pin_home_sites) home = bed.HomeSiteOf(i);
      const auto spec = bed.factory().MakeSpec(i, home);
      rec.Time(create, static_cast<int64_t>(i), [&] {
        (void)udr.CreateSubscriber(spec, home.value_or(0));
      });
    }
  }
  bed.clock().Advance(udr::Seconds(1));
  udr.CatchUpAllPartitions();
  // A deployment whose every SE holds a copy of every partition (one site,
  // replication factor = SEs) gets a spare cluster as the migration target.
  // It joins after provisioning, so it hosts nothing.
  if (udr.partition_count() > 0 &&
      MigrationTarget(udr, udr.partition(0)) == nullptr) {
    (void)udr.AddCluster(0);
  }

  const std::vector<Procedure> stream = MakeStream(mix, seed, bed, population);
  out.procedures = static_cast<int64_t>(stream.size());
  for (const Procedure& p : stream) {
    out.ops += static_cast<int64_t>(OpsOf(p).size());
  }

  FrontEnds fes;
  for (uint32_t s = 0; s < opts.sites; ++s) {
    fes.hlr.push_back(
        std::make_unique<udr::telecom::HlrFe>(s, &udr, mix.spec.batched));
    fes.hss.push_back(
        std::make_unique<udr::telecom::HssFe>(s, &udr, mix.spec.batched));
  }
  fes.ps = std::make_unique<udr::telecom::ProvisioningSystem>(
      udr::telecom::ProvisioningConfig{mix.spec.ps_site, 0, mix.spec.batched},
      &udr, &bed.factory());

  const udr::MicroDuration gap = static_cast<udr::MicroDuration>(
      1e6 / std::max(1.0, mix.spec.fe_rate_per_sec + mix.spec.ps_rate_per_sec));
  udr::routing::CoalescerConfig window;
  window.window = mix.spec.testbed.udr.coalesce_window_us > 0
                      ? mix.spec.testbed.udr.coalesce_window_us
                      : udr::Micros(200);
  window.max_ops = mix.spec.testbed.udr.coalesce_max_ops > 0
                       ? static_cast<size_t>(
                             mix.spec.testbed.udr.coalesce_max_ops)
                       : 64;
  int64_t failed = 0;

  const int64_t start = NowNs();
  do {
    // scenario: the engine builds each FE event's subscriber (profile
    // included) from the factory before it calls the front end; that cost
    // sits in the engine's residual, not in any layer below. PS ticks use
    // the bare index.
    {
      const Recorder::Lane lane = rec.LaneFor("scenario.subscriber_make");
      for (size_t i = 0; i < stream.size(); ++i) {
        if (stream[i].kind == Kind::kPsCallForwarding ||
            stream[i].kind == Kind::kPsBarring) {
          continue;
        }
        udr::telecom::Subscriber s;
        rec.Time(lane, static_cast<int64_t>(i),
                 [&] { s = bed.factory().Make(stream[i].index); });
      }
    }
    // telecom: whole procedures through the front ends (LDAP front door,
    // balancer, stateless server, verb path and everything below).
    {
      const Recorder::Lane lane = rec.LaneFor("telecom.procedure");
      for (size_t i = 0; i < stream.size(); ++i) {
        udr::telecom::ProcedureResult r;
        rec.Time(lane, static_cast<int64_t>(i), [&] { r = fes.Run(stream[i]); });
        if (!r.ok()) ++failed;
      }
    }
    // udr: the per-op verb path and the batched pipeline entry.
    {
      const Recorder::Lane lane = rec.LaneFor("udr.process");
      for (size_t i = 0; i < stream.size(); ++i) {
        for (const Op& op : OpsOf(stream[i])) {
          const udr::ldap::LdapRequest req = ToLdap(op);
          udr::ldap::LdapResult r;
          rec.Time(lane, static_cast<int64_t>(i),
                   [&] { r = udr.Process(req, stream[i].site); });
          if (!r.ok()) ++failed;
        }
      }
    }
    {
      const Recorder::Lane lane = rec.LaneFor("udr.process_batch");
      for (size_t i = 0; i < stream.size(); ++i) {
        std::vector<udr::ldap::LdapRequest> reqs;
        for (const Op& op : OpsOf(stream[i])) reqs.push_back(ToLdap(op));
        udr::ldap::LdapBatchResult r;
        rec.Time(lane, static_cast<int64_t>(i),
                 [&] { r = udr.ProcessBatch(reqs, stream[i].site); });
        failed += r.failed_ops();
      }
    }
    // coalescer: one PoA window per site; the clock advances by the mix's
    // inter-arrival gap so windows close on their deadlines. The procedures
    // of each flushed window are kept so the routing pass below can time
    // the same aggregate batches without the window.
    struct Window {
      udr::sim::SiteId site = 0;
      std::vector<size_t> procs;
    };
    std::vector<Window> flushed;
    {
      const Recorder::Lane lane = rec.LaneFor("coalescer.event");
      udr::Metrics metrics;
      std::vector<std::unique_ptr<udr::routing::Coalescer>> windows;
      std::vector<std::vector<udr::routing::EventId>> parked(opts.sites);
      std::vector<Window> open(opts.sites);
      for (uint32_t s = 0; s < opts.sites; ++s) {
        udr::routing::CoalescerConfig c = window;
        c.poa_site = s;
        windows.push_back(std::make_unique<udr::routing::Coalescer>(
            c, &router, &bed.clock(), &metrics));
        open[s].site = s;
      }
      auto take_all = [&](uint32_t s) {
        for (udr::routing::EventId id : parked[s]) {
          auto outcome = windows[s]->Take(id);
          if (outcome.has_value()) failed += outcome->failed_ops;
        }
        parked[s].clear();
      };
      // Moves the procedures of every window that flushed since the last
      // call into `flushed`.
      std::vector<int64_t> seen(opts.sites, 0);
      auto note_flushes = [&] {
        for (uint32_t s = 0; s < opts.sites; ++s) {
          if (windows[s]->flushes() == seen[s]) continue;
          seen[s] = windows[s]->flushes();
          flushed.push_back(std::move(open[s]));
          open[s] = Window{s, {}};
        }
      };
      for (size_t i = 0; i < stream.size(); ++i) {
        const udr::sim::SiteId site = stream[i].site;
        udr::routing::BatchRequest batch = ToBatch(OpsOf(stream[i]));
        open[site].procs.push_back(i);
        int64_t t0 = 0;
        int64_t t1 = 0;
        int64_t ns = rec.Measure(
            [&] { parked[site].push_back(windows[site]->Submit(std::move(batch))); },
            &t0, &t1);
        note_flushes();
        bed.clock().Advance(gap);
        int64_t u0 = 0;
        ns += rec.Measure(
            [&] {
              for (uint32_t s = 0; s < opts.sites; ++s) {
                if (windows[s]->FlushIfDue() || !windows[s]->HasPending()) {
                  take_all(s);
                }
              }
            },
            &u0, &t1);
        note_flushes();
        rec.Add(lane, static_cast<int64_t>(i), ns, t0, t1);
      }
      for (uint32_t s = 0; s < opts.sites; ++s) {
        windows[s]->FlushNow();
        take_all(s);
      }
      note_flushes();
    }
    // routing: the coalescer's aggregate batches (its procedures' ops in
    // arrival order), dispatched directly.
    {
      const Recorder::Lane lane = rec.LaneFor("routing.route_window");
      for (size_t w = 0; w < flushed.size(); ++w) {
        udr::routing::BatchRequest agg;
        for (size_t i : flushed[w].procs) {
          for (auto& op : ToBatch(OpsOf(stream[i])).ops) {
            agg.ops.push_back(std::move(op));
          }
        }
        udr::routing::BatchResult r;
        rec.Time(lane, static_cast<int64_t>(w),
                 [&] { r = router.RouteBatch(agg, flushed[w].site); });
        failed += r.failed_ops;
      }
    }
    // routing: the staged batch pipeline, one procedure per batch.
    {
      const Recorder::Lane lane = rec.LaneFor("routing.route_batch");
      for (size_t i = 0; i < stream.size(); ++i) {
        const udr::routing::BatchRequest batch = ToBatch(OpsOf(stream[i]));
        udr::routing::BatchResult r;
        rec.Time(lane, static_cast<int64_t>(i),
                 [&] { r = router.RouteBatch(batch, stream[i].site); });
        failed += r.failed_ops;
      }
    }
    // location: identity resolution at the PoA-local stage.
    {
      const Recorder::Lane lane = rec.LaneFor("location.resolve");
      for (size_t i = 0; i < stream.size(); ++i) {
        for (const Op& op : OpsOf(stream[i])) {
          udr::location::ResolveResult r;
          rec.Time(lane, static_cast<int64_t>(i),
                   [&] { r = router.ResolveAt(op.id, stream[i].site); });
          if (!r.status.ok()) ++failed;
        }
      }
    }
    // replication: size-1 grouped reads and writes on the owning replica
    // set, then one catch-up of every slave.
    bed.clock().Advance(udr::Seconds(1));
    udr.CatchUpAllPartitions();
    {
      const Recorder::Lane read = rec.LaneFor("replication.read");
      const Recorder::Lane write = rec.LaneFor("replication.write");
      for (size_t i = 0; i < stream.size(); ++i) {
        for (const Op& op : OpsOf(stream[i])) {
          auto entry = router.AuthoritativeLookup(op.id);
          if (!entry.ok()) {
            ++failed;
            continue;
          }
          udr::replication::ReplicaSet* rs = udr.partition(entry->partition);
          if (!op.write) {
            const std::vector<udr::replication::BatchReadOp> reads = {
                {entry->key, "", PrefOf(op)}};
            udr::replication::GroupReadResult r;
            rec.Time(read, static_cast<int64_t>(i),
                     [&] { r = rs->ReadBatch(stream[i].site, reads); });
            if (r.per_op.empty() || !r.per_op[0].status.ok()) ++failed;
            continue;
          }
          udr::replication::WriteBuilder wb;
          for (const auto& [name, value] : op.sets) {
            wb.Set(entry->key, name, value);
          }
          std::vector<std::vector<udr::storage::WriteOp>> txns;
          txns.push_back(std::move(wb).Build());
          udr::replication::GroupWriteResult r;
          rec.Time(write, static_cast<int64_t>(i), [&] {
            r = rs->WriteBatch(stream[i].site, std::move(txns));
          });
          if (!r.status.ok()) ++failed;
        }
      }
      bed.clock().Advance(udr::Seconds(1));
      const int64_t before = SumApplied(udr);
      rec.Time(rec.LaneFor("replication.catchup"), 0,
               [&] { udr.CatchUpAllPartitions(); });
      out.catchup_entries += SumApplied(udr) - before;
    }
    // storage: attribute lookups of the read projections on the master
    // copy, write ops applied to a side store, commit-log appends.
    {
      const Recorder::Lane find = rec.LaneFor("storage.find");
      const Recorder::Lane apply = rec.LaneFor("storage.apply");
      const Recorder::Lane append = rec.LaneFor("storage.log_append");
      udr::storage::RecordStore side;
      udr::storage::CommitLog log;
      const udr::MicroTime now = bed.clock().Now();
      for (size_t i = 0; i < stream.size(); ++i) {
        const int64_t proc = static_cast<int64_t>(i);
        for (const Op& op : OpsOf(stream[i])) {
          auto entry = router.AuthoritativeLookup(op.id);
          if (!entry.ok()) continue;
          udr::replication::ReplicaSet* rs = udr.partition(entry->partition);
          const udr::storage::Record* record =
              rs->replica_store(rs->master_id()).Find(entry->key);
          if (record == nullptr) {
            ++failed;
            continue;
          }
          if (!op.write) {
            for (const std::string& name : op.attrs) {
              const udr::storage::AttrId id = udr::storage::LookupAttr(name);
              const udr::storage::Attribute* a = nullptr;
              rec.Time(find, proc, [&] { a = record->FindById(id); });
              (void)a;  // An absent attribute is a valid projection miss.
            }
            continue;
          }
          if (!side.Contains(entry->key)) {
            side.PutRecord(entry->key, *record);
          }
          std::vector<udr::storage::WriteOp> ops;
          for (const auto& [name, value] : op.sets) {
            udr::storage::WriteOp w;
            w.key = entry->key;
            w.attr_id = udr::storage::InternAttr(name);
            w.attribute = udr::storage::Attribute{value, now, 0};
            rec.Time(apply, proc,
                     [&] { udr::storage::ApplyWriteOp(&side, w); });
            ops.push_back(std::move(w));
          }
          rec.Time(append, proc, [&] { log.Append(now, 0, std::move(ops)); });
        }
      }
    }
    // migration: chunked primary-copy streams toward an SE that holds no
    // copy of the partition, aborted once the copy phase is shipped.
    {
      const Recorder::Lane lane = rec.LaneFor("migration.ship_chunk");
      const int64_t chunk = udr.config().migration_chunk_bytes;
      int64_t shipped = 0;
      for (uint32_t p = 0; p < udr.partition_count(); ++p) {
        udr::replication::ReplicaSet* rs = udr.partition(p);
        udr::storage::StorageElement* target = MigrationTarget(udr, rs);
        if (target == nullptr) continue;
        auto stream_or = rs->BeginPrimaryMigration(target);
        if (!stream_or.ok()) continue;
        udr::replication::MigrationStream ms = *stream_or;
        while (!ms.copy_done()) {
          udr::StatusOr<int64_t> bytes(int64_t{0});
          rec.Time(lane, shipped++,
                   [&] { bytes = rs->ShipMigrationChunk(&ms, chunk); });
          if (!bytes.ok() || *bytes == 0) break;
        }
        rs->AbortMigration(&ms);
      }
    }
    ++out.passes;
  } while (static_cast<double>(NowNs() - start) / 1e9 < budget_s);

  out.failed_ops = failed;
  out.host_trace_json = rec.ExportSpans();
  return out;
}

}  // namespace udrbench
