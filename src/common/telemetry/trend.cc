#include "common/telemetry/trend.h"

#include <cmath>
#include <set>

namespace ht {
namespace {

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

struct TimingLeaf {
  std::string path;
  MetricClass metric_class = MetricClass::kExact;
  double baseline = 0.0;
  double current = 0.0;
};

struct WalkState {
  const TrendOptions* options = nullptr;
  std::vector<TrendIssue>* issues = nullptr;
  std::vector<TimingLeaf> timing;
  double wall_base = 0.0, wall_cur = 0.0;
  double rate_base = 0.0, rate_cur = 0.0;
};

void AddIssue(WalkState& state, const std::string& path, const std::string& what) {
  if (state.issues != nullptr) {
    state.issues->push_back({path, what});
  }
}

std::string Join(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

void Walk(const JsonValue& base, const JsonValue& cur, const std::string& path,
          std::string_view key, WalkState& state);

void WalkChildren(const JsonValue& base, const JsonValue& cur, const std::string& path,
                  WalkState& state) {
  if (base.type() == JsonValue::Type::kObject) {
    std::set<std::string> base_keys;
    for (const auto& [key, member] : base.members()) {
      base_keys.insert(key);
      const JsonValue* other = cur.Find(key);
      if (other == nullptr) {
        AddIssue(state, Join(path, key), "missing from current document");
        continue;
      }
      Walk(member, *other, Join(path, key), key, state);
    }
    for (const auto& [key, member] : cur.members()) {
      if (base_keys.count(key) == 0) {
        AddIssue(state, Join(path, key), "not present in baseline");
      }
    }
    return;
  }
  if (base.type() == JsonValue::Type::kArray) {
    if (base.size() != cur.size()) {
      AddIssue(state, path,
               "array size changed: " + std::to_string(base.size()) + " -> " +
                   std::to_string(cur.size()));
      return;
    }
    for (size_t i = 0; i < base.size(); ++i) {
      Walk(base.at(i), cur.at(i), path + "[" + std::to_string(i) + "]", {}, state);
    }
  }
}

void Walk(const JsonValue& base, const JsonValue& cur, const std::string& path,
          std::string_view key, WalkState& state) {
  const MetricClass metric_class = ClassifyMetric(key);
  if (metric_class == MetricClass::kIgnored) {
    return;  // Skips the whole subtree for container-valued keys (profile).
  }
  if (base.type() == JsonValue::Type::kObject || base.type() == JsonValue::Type::kArray) {
    if (cur.type() != base.type()) {
      AddIssue(state, path, "structure changed (container vs scalar)");
      return;
    }
    WalkChildren(base, cur, path, state);
    return;
  }
  // Scalar leaf.
  if (base.is_number() && cur.is_number() && metric_class != MetricClass::kExact) {
    TimingLeaf leaf;
    leaf.path = path;
    leaf.metric_class = metric_class;
    leaf.baseline = base.as_double();
    leaf.current = cur.as_double();
    if (metric_class == MetricClass::kWallSeconds) {
      state.wall_base += leaf.baseline;
      state.wall_cur += leaf.current;
    } else if (metric_class == MetricClass::kRate) {
      state.rate_base += leaf.baseline;
      state.rate_cur += leaf.current;
    }
    state.timing.push_back(std::move(leaf));
    return;
  }
  if (!(base == cur)) {
    AddIssue(state, path,
             "exact-class value changed: " + base.ToString(-1) + " -> " + cur.ToString(-1));
  }
}

}  // namespace

MetricClass ClassifyMetric(std::string_view key) {
  if (key.empty()) {
    return MetricClass::kExact;  // Array elements inherit via their leaves.
  }
  // The profiler's own section measures the harness, not the simulation;
  // host-shape keys describe the machine the report was made on.
  if (key == "profile" || key == "host" || key == "pool_threads" || key == "threads" ||
      key == "wall_clock") {
    return MetricClass::kIgnored;
  }
  if (Contains(key, "speedup")) {
    return MetricClass::kSpeedup;
  }
  if (Contains(key, "per_sec") || Contains(key, "per_second")) {
    return MetricClass::kRate;
  }
  if (Contains(key, "seconds") || Contains(key, "wall")) {
    return MetricClass::kWallSeconds;
  }
  return MetricClass::kExact;
}

bool TrendCompare(const JsonValue& baseline, const JsonValue& current,
                  const TrendOptions& options, std::vector<TrendIssue>* issues) {
  WalkState state;
  state.options = &options;
  state.issues = issues;
  const size_t structural_before = issues != nullptr ? issues->size() : 0;
  Walk(baseline, current, "", {}, state);
  bool ok = issues == nullptr || issues->size() == structural_before;

  const double tol = options.tolerance > 1.0 ? options.tolerance : 1.0;
  for (const TimingLeaf& leaf : state.timing) {
    switch (leaf.metric_class) {
      case MetricClass::kSpeedup: {
        if (leaf.baseline <= 0.0) {
          break;
        }
        if (leaf.current < leaf.baseline / tol) {
          AddIssue(state, leaf.path,
                   "speedup regressed: " + JsonDouble(leaf.baseline) + " -> " +
                       JsonDouble(leaf.current) + " (tolerance " + JsonDouble(tol) + "x)");
          ok = false;
        }
        break;
      }
      case MetricClass::kWallSeconds: {
        if (state.wall_base <= 0.0 || state.wall_cur <= 0.0) {
          break;
        }
        const double share_base = leaf.baseline / state.wall_base;
        const double share_cur = leaf.current / state.wall_cur;
        if (share_base < options.min_share && share_cur < options.min_share) {
          break;
        }
        if (share_cur > share_base * tol) {
          AddIssue(state, leaf.path,
                   "wall-clock share regressed: " + JsonDouble(share_base) + " -> " +
                       JsonDouble(share_cur) + " of total (tolerance " + JsonDouble(tol) + "x)");
          ok = false;
        }
        break;
      }
      case MetricClass::kRate: {
        if (state.rate_base <= 0.0 || state.rate_cur <= 0.0) {
          break;
        }
        const double share_base = leaf.baseline / state.rate_base;
        const double share_cur = leaf.current / state.rate_cur;
        if (share_base < options.min_share && share_cur < options.min_share) {
          break;
        }
        if (share_cur < share_base / tol) {
          AddIssue(state, leaf.path,
                   "rate share regressed: " + JsonDouble(share_base) + " -> " +
                       JsonDouble(share_cur) + " of total (tolerance " + JsonDouble(tol) + "x)");
          ok = false;
        }
        break;
      }
      default:
        break;
    }
  }
  return ok;
}

namespace {

JsonValue InjectValue(const JsonValue& value, const std::string& path, std::string_view key,
                      double factor, bool active, std::string_view scope) {
  const bool now_active = active || (!scope.empty() && path == scope);
  switch (value.type()) {
    case JsonValue::Type::kObject: {
      JsonValue out = JsonValue::Object();
      for (const auto& [member_key, member] : value.members()) {
        out.Set(member_key, InjectValue(member, Join(path, member_key), member_key, factor,
                                        now_active, scope));
      }
      return out;
    }
    case JsonValue::Type::kArray: {
      JsonValue out = JsonValue::Array();
      for (size_t i = 0; i < value.items().size(); ++i) {
        out.Push(InjectValue(value.at(i), path + "[" + std::to_string(i) + "]", key, factor,
                             now_active, scope));
      }
      return out;
    }
    default: {
      if (!now_active || !value.is_number()) {
        return value;
      }
      switch (ClassifyMetric(key)) {
        case MetricClass::kWallSeconds:
          return JsonValue::Double(value.as_double() * factor);
        case MetricClass::kRate:
        case MetricClass::kSpeedup:
          return JsonValue::Double(value.as_double() / factor);
        default:
          return value;
      }
    }
  }
}

}  // namespace

JsonValue InjectSlowdown(const JsonValue& doc, double factor, std::string_view scope) {
  return InjectValue(doc, "", {}, factor, scope.empty(), scope);
}

}  // namespace ht
