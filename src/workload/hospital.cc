#include "workload/hospital.h"

#include <string>

#include "common/check.h"
#include "hmm/translate.h"

namespace tms::workload {
namespace {

// Place ids: 0..num_rooms-1 = rooms, num_rooms = hallway, num_rooms+1 = lab.
int NumPlaces(const HospitalConfig& c) { return c.num_rooms + 2; }

std::string LocationName(const HospitalConfig& c, int place, int subloc) {
  std::string suffix(1, static_cast<char>('a' + subloc));
  if (place < c.num_rooms) {
    std::string name = "r";
    name += std::to_string(place + 1);
    return name + suffix;
  }
  if (place == c.num_rooms) return "h" + suffix;
  return "l" + suffix;
}

Status ValidateConfig(const HospitalConfig& c) {
  if (c.num_rooms < 1) {
    return Status::InvalidArgument("hospital needs at least one room");
  }
  if (c.locs_per_place < 1 || c.locs_per_place > 26) {
    return Status::InvalidArgument("locs_per_place must be in [1,26]");
  }
  if (!(c.stay_prob > 0) || !(c.within_place_prob >= 0) ||
      !(c.stay_prob + c.within_place_prob < 1.0)) {
    return Status::InvalidArgument(
        "stay_prob + within_place_prob must leave room for movement");
  }
  if (!(c.sensor_accuracy > 0 && c.sensor_accuracy <= 1)) {
    return Status::InvalidArgument("sensor_accuracy must be in (0,1]");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<hmm::Hmm> BuildHospitalHmm(const HospitalConfig& config) {
  TMS_RETURN_IF_ERROR(ValidateConfig(config));
  const int places = NumPlaces(config);
  const int k = config.locs_per_place;
  const int total = places * k;
  const int hallway = config.num_rooms;

  Alphabet locations;
  for (int p = 0; p < places; ++p) {
    for (int x = 0; x < k; ++x) locations.Intern(LocationName(config, p, x));
  }
  auto loc = [k](int place, int subloc) { return place * k + subloc; };

  // Uniform start anywhere.
  std::vector<double> initial(static_cast<size_t>(total),
                              1.0 / static_cast<double>(total));

  // Transitions: stay / move within the place / move to a reachable place
  // (rooms and the lab connect through the hallway).
  std::vector<double> transition(
      static_cast<size_t>(total) * static_cast<size_t>(total), 0.0);
  for (int p = 0; p < places; ++p) {
    std::vector<int> reachable;
    if (p == hallway) {
      for (int p2 = 0; p2 < places; ++p2) {
        if (p2 != hallway) reachable.push_back(p2);
      }
    } else {
      reachable.push_back(hallway);
    }
    for (int x = 0; x < k; ++x) {
      const size_t row =
          static_cast<size_t>(loc(p, x)) * static_cast<size_t>(total);
      transition[row + static_cast<size_t>(loc(p, x))] += config.stay_prob;
      if (k > 1) {
        for (int x2 = 0; x2 < k; ++x2) {
          if (x2 == x) continue;
          transition[row + static_cast<size_t>(loc(p, x2))] +=
              config.within_place_prob / static_cast<double>(k - 1);
        }
      } else {
        transition[row + static_cast<size_t>(loc(p, x))] +=
            config.within_place_prob;
      }
      const double move =
          1.0 - config.stay_prob - config.within_place_prob;
      const double per_target =
          move / static_cast<double>(reachable.size() * k);
      for (int p2 : reachable) {
        for (int x2 = 0; x2 < k; ++x2) {
          transition[row + static_cast<size_t>(loc(p2, x2))] += per_target;
        }
      }
    }
  }

  // Emissions: the true sub-location is read with sensor_accuracy; the
  // rest of the mass is confused uniformly over the other sub-locations of
  // the same place and the hallway (sensors near passages).
  std::vector<double> emission(
      static_cast<size_t>(total) * static_cast<size_t>(total), 0.0);
  for (int p = 0; p < places; ++p) {
    for (int x = 0; x < k; ++x) {
      const size_t row =
          static_cast<size_t>(loc(p, x)) * static_cast<size_t>(total);
      std::vector<int> confusions;
      for (int x2 = 0; x2 < k; ++x2) {
        if (x2 != x) confusions.push_back(loc(p, x2));
      }
      if (p != hallway) {
        for (int x2 = 0; x2 < k; ++x2) confusions.push_back(loc(hallway, x2));
      }
      if (confusions.empty() || config.sensor_accuracy >= 1.0) {
        emission[row + static_cast<size_t>(loc(p, x))] = 1.0;
      } else {
        emission[row + static_cast<size_t>(loc(p, x))] =
            config.sensor_accuracy;
        for (int c2 : confusions) {
          emission[row + static_cast<size_t>(c2)] +=
              (1.0 - config.sensor_accuracy) /
              static_cast<double>(confusions.size());
        }
      }
    }
  }

  return hmm::Hmm::Create(locations, locations, std::move(initial),
                          std::move(transition), std::move(emission));
}

StatusOr<HospitalScenario> MakeScenario(const HospitalConfig& config, int n,
                                        Rng& rng) {
  auto model = BuildHospitalHmm(config);
  if (!model.ok()) return model.status();
  if (n < 1) return Status::InvalidArgument("trajectory length must be >= 1");
  auto [hidden, observed] = model->Sample(n, rng);
  auto mu = hmm::PosteriorMarkovSequence(*model, observed);
  if (!mu.ok()) return mu.status();
  HospitalScenario out{std::move(model).value(), std::move(hidden),
                       std::move(observed), std::move(mu).value()};
  return out;
}

transducer::Transducer PlaceTracker(const Alphabet& locations,
                                    const HospitalConfig& config) {
  const int places = NumPlaces(config);
  const int hallway = config.num_rooms;
  Alphabet output;
  for (int r = 0; r < config.num_rooms; ++r) {
    output.Intern(std::to_string(r + 1));
  }
  const Symbol hall_sym = output.Intern("H");
  const Symbol lab_sym = output.Intern("L");
  auto place_symbol = [&](int p) {
    if (p < config.num_rooms) return static_cast<Symbol>(p);
    return p == hallway ? hall_sym : lab_sym;
  };
  // Determine the place of each location symbol from its name.
  auto place_of = [&](Symbol s) {
    const std::string& name = locations.Name(s);
    if (name[0] == 'h') return hallway;
    if (name[0] == 'l') return config.num_rooms + 1;
    return std::stoi(name.substr(1, name.size() - 2)) - 1;
  };

  // States: 0 = before any reading, 1+p = currently in place p.
  transducer::Transducer t(locations, output, 1 + places);
  t.SetInitial(0);
  t.SetAllAccepting();
  for (automata::StateId q = 0; q <= places; ++q) {
    for (size_t s = 0; s < locations.size(); ++s) {
      const Symbol sym = static_cast<Symbol>(s);
      const int p = place_of(sym);
      const automata::StateId target = 1 + p;
      Str emit = (q == target) ? Str{} : Str{place_symbol(p)};
      TMS_CHECK(t.AddTransition(q, sym, target, std::move(emit)).ok());
    }
  }
  TMS_CHECK(t.IsDeterministic());
  return t;
}

}  // namespace tms::workload
