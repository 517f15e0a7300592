#include "mdbs/workload.h"

#include <algorithm>

#include "common/logging.h"

namespace mdbs {

gtm::GlobalTxnSpec MakeGlobalTxn(const GlobalWorkloadConfig& config,
                                 const std::vector<SiteId>& sites,
                                 Rng* rng) {
  MDBS_CHECK(!sites.empty());
  MDBS_CHECK(config.items_per_site >= 1)
      << "items_per_site is " << config.items_per_site;
  int dav_hi = static_cast<int>(std::min<int64_t>(
      config.dav_max, static_cast<int64_t>(sites.size())));
  int dav_lo = std::min(config.dav_min, dav_hi);
  int dav = std::max(
      1, static_cast<int>(rng->NextInRange(dav_lo, dav_hi)));

  // Choose `dav` distinct sites.
  std::vector<SiteId> chosen = sites;
  rng->Shuffle(&chosen);
  chosen.resize(static_cast<size_t>(dav));

  ZipfGenerator zipf(static_cast<uint64_t>(config.items_per_site),
                     config.zipf_theta);

  gtm::GlobalTxnSpec spec;
  std::vector<std::vector<gtm::GlobalOp>> per_site;
  for (SiteId site : chosen) {
    int ops = static_cast<int>(
        rng->NextInRange(config.ops_per_site_min, config.ops_per_site_max));
    std::vector<gtm::GlobalOp> list;
    for (int i = 0; i < ops; ++i) {
      DataItemId item{static_cast<int64_t>(zipf.Next(rng))};
      if (rng->NextBernoulli(config.read_ratio)) {
        list.push_back(gtm::GlobalOp::Read(site, item));
      } else {
        list.push_back(gtm::GlobalOp::Write(
            site, item, static_cast<int64_t>(rng->Next() >> 16)));
      }
    }
    per_site.push_back(std::move(list));
  }

  if (!config.interleave_sites) {
    for (auto& list : per_site) {
      for (auto& op : list) spec.ops.push_back(std::move(op));
    }
    return spec;
  }
  // Random interleaving preserving per-site order.
  std::vector<size_t> cursor(per_site.size(), 0);
  size_t remaining = 0;
  for (const auto& list : per_site) remaining += list.size();
  while (remaining > 0) {
    size_t pick = rng->NextBelow(per_site.size());
    if (cursor[pick] < per_site[pick].size()) {
      spec.ops.push_back(std::move(per_site[pick][cursor[pick]++]));
      --remaining;
    }
  }
  return spec;
}

std::vector<DataOp> MakeLocalTxn(const LocalWorkloadConfig& config,
                                 Rng* rng) {
  MDBS_CHECK(config.items_per_site >= 1)
      << "items_per_site is " << config.items_per_site;
  int ops = static_cast<int>(rng->NextInRange(config.ops_min, config.ops_max));
  ZipfGenerator zipf(static_cast<uint64_t>(config.items_per_site),
                     config.zipf_theta);
  std::vector<DataOp> result;
  for (int i = 0; i < ops; ++i) {
    DataItemId item{static_cast<int64_t>(zipf.Next(rng))};
    if (rng->NextBernoulli(config.read_ratio)) {
      result.push_back(DataOp::Read(item));
    } else {
      result.push_back(
          DataOp::Write(item, static_cast<int64_t>(rng->Next() >> 16)));
    }
  }
  return result;
}

}  // namespace mdbs
