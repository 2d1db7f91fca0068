#include "core/analysis_geography.h"

#include <algorithm>
#include <map>

#include "core/analysis_mobility.h"
#include "util/geo.h"

namespace wearscope::core {

GeographyResult analyze_geography(const AnalysisContext& ctx,
                                  double cluster_radius_km) {
  GeographyResult res;

  // 1. Greedy proximity clustering of sectors into areas.  Sector counts
  //    are small (hundreds), so the quadratic scan is fine.
  const std::vector<trace::SectorInfo>& sectors = ctx.store().sectors;
  std::map<trace::SectorId, std::size_t> area_of;
  std::vector<AreaStats> areas;
  std::vector<util::GeoPoint> centroids;
  for (const trace::SectorInfo& s : sectors) {
    std::size_t best = areas.size();
    double best_d = cluster_radius_km;
    for (std::size_t a = 0; a < areas.size(); ++a) {
      const double d = util::haversine_km(centroids[a], s.position);
      if (d < best_d) {
        best = a;
        best_d = d;
      }
    }
    if (best == areas.size()) {
      AreaStats area;
      area.area_id = areas.size();
      area.center = s.position;
      areas.push_back(area);
      centroids.push_back(s.position);
    }
    // Running centroid update keeps clusters centred as they grow.
    AreaStats& area = areas[best];
    const double n = static_cast<double>(area.sectors);
    centroids[best].lat_deg =
        (centroids[best].lat_deg * n + s.position.lat_deg) / (n + 1.0);
    centroids[best].lon_deg =
        (centroids[best].lon_deg * n + s.position.lon_deg) / (n + 1.0);
    area.center = centroids[best];
    area.sectors += 1;
    area_of[s.sector_id] = best;
  }

  // 2. Home-anchor every user to their max-dwell sector (the first in
  //    sector order on ties).
  SectorDwell dwell;
  for (const UserView& u : ctx.users()) {
    user_sector_dwell(ctx, u, dwell);
    if (dwell.sectors.empty()) continue;
    trace::SectorId home = dwell.sectors.front();
    double best = 0.0;
    for (std::size_t k = 0; k < dwell.sectors.size(); ++k) {
      if (dwell.seconds[k] > best) {
        best = dwell.seconds[k];
        home = dwell.sectors[k];
      }
    }
    const auto it = area_of.find(home);
    if (it == area_of.end()) continue;
    AreaStats& area = areas[it->second];
    area.users += 1;
    if (u.has_wearable) area.wearable_users += 1;
  }

  // 3. Urban/rural split: the user-densest half of the areas vs the rest.
  std::sort(areas.begin(), areas.end(),
            [](const AreaStats& a, const AreaStats& b) {
              return a.users > b.users;
            });
  std::size_t urban_users = 0;
  std::size_t urban_wearables = 0;
  std::size_t rural_users = 0;
  std::size_t rural_wearables = 0;
  for (std::size_t a = 0; a < areas.size(); ++a) {
    if (a < (areas.size() + 1) / 2) {
      urban_users += areas[a].users;
      urban_wearables += areas[a].wearable_users;
    } else {
      rural_users += areas[a].users;
      rural_wearables += areas[a].wearable_users;
    }
  }
  if (urban_users > 0) {
    res.urban_adoption = static_cast<double>(urban_wearables) /
                         static_cast<double>(urban_users);
  }
  if (rural_users > 0) {
    res.rural_adoption = static_cast<double>(rural_wearables) /
                         static_cast<double>(rural_users);
  }
  res.areas = std::move(areas);
  return res;
}

FigureData figure_geography(const GeographyResult& r) {
  FigureData fig;
  fig.id = "geography";
  fig.title = "Spatial adoption: wearable users per coverage area";
  Series users;
  users.name = "users_per_area";
  Series rate;
  rate.name = "adoption_rate_per_area";
  for (const AreaStats& a : r.areas) {
    const std::string label = "area" + std::to_string(a.area_id) + " (" +
                              std::to_string(a.sectors) + " sectors)";
    users.labels.push_back(label);
    users.y.push_back(static_cast<double>(a.users));
    rate.labels.push_back(label);
    rate.y.push_back(a.adoption_rate());
  }
  fig.series = {std::move(users), std::move(rate)};

  fig.checks.push_back(make_check(
      "multiple coverage areas resolved", 6,
      static_cast<double>(r.areas.size()), 2, 1000));
  // The generator places owners by the same population process as
  // everyone else: adoption rates must be broadly uniform in space (no
  // artificial urban bias), within sampling noise.
  if (r.rural_adoption > 0.0) {
    fig.checks.push_back(make_check(
        "urban/rural adoption ratio (spatially uniform)", 1.0,
        r.urban_adoption / r.rural_adoption, 0.5, 2.0));
  }
  fig.notes.push_back(
      "extension: the paper never maps its users; the MME + sector data "
      "supports it directly (home = max-dwell sector)");
  return fig;
}

}  // namespace wearscope::core
