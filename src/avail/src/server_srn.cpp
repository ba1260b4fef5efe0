#include "patchsec/avail/server_srn.hpp"

#include <stdexcept>

namespace patchsec::avail {

namespace {
double rate_from_mean_hours(double hours, const char* what) {
  if (!(hours > 0.0)) throw std::invalid_argument(std::string(what) + ": mean time must be positive");
  return 1.0 / hours;
}

/// Value-type bundle of place ids captured by the guard lambdas.  The guards
/// outlive the builder function, so they must not reference the ServerSrn
/// object itself.
struct Ids {
  petri::PlaceId hw_up, hw_down;
  petri::PlaceId os_up, os_down, os_failed, os_rtp, os_patched;
  petri::PlaceId svc_up, svc_down, svc_failed, svc_rtp, svc_patched, svc_rrb;
  petri::PlaceId clock_idle, clock_armed, clock_triggered;

  [[nodiscard]] bool in_patch_window(const petri::Marking& m) const {
    return m[svc_rtp] == 1 || m[svc_patched] == 1 || m[svc_rrb] == 1 || m[os_rtp] == 1 ||
           m[os_patched] == 1;
  }
};

}  // namespace

bool ServerSrn::in_patch_window(const petri::Marking& m) const {
  return m[svc_ready_to_patch] == 1 || m[svc_patched] == 1 || m[svc_ready_to_reboot] == 1 ||
         m[os_ready_to_patch] == 1 || m[os_patched] == 1;
}

bool ServerSrn::service_patch_down(const petri::Marking& m) const {
  return m[svc_ready_to_patch] == 1 || m[svc_patched] == 1 || m[svc_ready_to_reboot] == 1;
}

bool ServerSrn::service_reboot_enabled(const petri::Marking& m) const {
  return m[svc_ready_to_reboot] == 1 && m[os_up] == 1 && m[hw_up] == 1;
}

bool ServerSrn::service_up(const petri::Marking& m) const { return m[svc_up] == 1; }

ServerSrnParameters server_srn_parameters(const enterprise::ServerSpec& spec,
                                          double patch_interval_hours) {
  const enterprise::FailureRecoveryTimes& t = spec.times;
  ServerSrnParameters p{};
  p.hw_mtbf = t.hw_mtbf;
  p.hw_mttr = t.hw_mttr;
  p.os_mtbf = t.os_mtbf;
  p.os_mttr = t.os_mttr;
  p.os_patch = spec.os_patch_hours();
  p.os_reboot_after_patch = t.os_reboot;
  p.os_reboot_after_failure = t.os_reboot;
  p.svc_mtbf = t.svc_mtbf;
  p.svc_mttr = t.svc_mttr;
  p.svc_patch = spec.app_patch_hours();
  p.svc_reboot_after_patch = t.svc_reboot;
  p.svc_reboot_after_failure = t.svc_reboot;
  p.patch_interval = patch_interval_hours;
  return p;
}

ServerSrn build_server_srn(const enterprise::ServerSpec& spec, const ServerSrnOptions& options) {
  ServerSrnParameters p = server_srn_parameters(spec, options.patch_interval_hours);
  if (options.app_patch_hours_override >= 0.0) p.svc_patch = options.app_patch_hours_override;
  if (options.os_patch_hours_override >= 0.0) p.os_patch = options.os_patch_hours_override;
  if (!(p.svc_patch > 0.0) && !(p.os_patch > 0.0)) {
    throw std::invalid_argument("build_server_srn: server has no critical vulnerability to patch");
  }
  // A layer with zero critical vulnerabilities patches "instantaneously"; we
  // model that with a very fast transition instead of restructuring the net.
  constexpr double kInstantHours = 1e-9;
  const double alpha_svc = rate_from_mean_hours(std::max(p.svc_patch, kInstantHours), "svc patch");
  const double alpha_os = rate_from_mean_hours(std::max(p.os_patch, kInstantHours), "os patch");

  ServerSrn s;
  petri::SrnModel& net = s.model;

  // ---- places --------------------------------------------------------------
  s.hw_up = net.add_place("Phwup", 1);
  s.hw_down = net.add_place("Phwd", 0);
  s.os_up = net.add_place("Posup", 1);
  s.os_down = net.add_place("Posd", 0);
  s.os_failed = net.add_place("Posfd", 0);
  s.os_ready_to_patch = net.add_place("Posrtp", 0);
  s.os_patched = net.add_place("Posp", 0);
  s.svc_up = net.add_place("Psvcup", 1);
  s.svc_down = net.add_place("Psvcd", 0);
  s.svc_failed = net.add_place("Psvcfd", 0);
  s.svc_ready_to_patch = net.add_place("Psvcrtp", 0);
  s.svc_patched = net.add_place("Psvcp", 0);
  s.svc_ready_to_reboot = net.add_place("Psvcprrb", 0);
  s.clock_idle = net.add_place("Pclock", 1);
  s.clock_armed = net.add_place("Parm", 0);
  s.clock_triggered = net.add_place("Ptrigger", 0);

  const Ids ids{s.hw_up,  s.hw_down,    s.os_up,      s.os_down,
                s.os_failed, s.os_ready_to_patch, s.os_patched, s.svc_up,
                s.svc_down,  s.svc_failed, s.svc_ready_to_patch, s.svc_patched,
                s.svc_ready_to_reboot, s.clock_idle, s.clock_armed, s.clock_triggered};

  // Guard helpers (Table III).  All capture the id bundle by value.
  const auto hw_is_up = [ids](const petri::Marking& m) { return m[ids.hw_up] == 1; };
  const auto hw_is_down = [ids](const petri::Marking& m) { return m[ids.hw_down] == 1; };
  const auto hw_os_up = [ids](const petri::Marking& m) {
    return m[ids.hw_up] == 1 && m[ids.os_up] == 1;
  };
  const auto hw_or_osf_down = [ids](const petri::Marking& m) {
    return m[ids.hw_down] == 1 || m[ids.os_failed] == 1;
  };
  const auto outside_patch_window = [ids](const petri::Marking& m) {
    return !ids.in_patch_window(m);
  };

  // ---- hardware (Fig. 5a) ---------------------------------------------------
  {
    const auto thwd = net.add_timed_transition("Thwd", rate_from_mean_hours(p.hw_mtbf, "hw mtbf"));
    net.add_input_arc(thwd, s.hw_up);
    net.add_output_arc(thwd, s.hw_down);
    net.set_guard(thwd, outside_patch_window);  // "hardware will not fail during the patch period"

    const auto thwup = net.add_timed_transition("Thwup", rate_from_mean_hours(p.hw_mttr, "hw mttr"));
    net.add_input_arc(thwup, s.hw_down);
    net.add_output_arc(thwup, s.hw_up);
  }

  // ---- OS (Fig. 5b) ----------------------------------------------------------
  {
    const auto tosd = net.add_immediate_transition("Tosd");  // gosd: hw down
    net.add_input_arc(tosd, s.os_up);
    net.add_output_arc(tosd, s.os_down);
    net.set_guard(tosd, hw_is_down);

    const auto tosdrb = net.add_timed_transition(
        "Tosdrb", rate_from_mean_hours(p.os_reboot_after_failure, "os reboot"));
    net.add_input_arc(tosdrb, s.os_down);
    net.add_output_arc(tosdrb, s.os_up);
    net.set_guard(tosdrb, hw_is_up);  // gosdrb

    const auto tosfd = net.add_timed_transition("Tosfd", rate_from_mean_hours(p.os_mtbf, "os mtbf"));
    net.add_input_arc(tosfd, s.os_up);
    net.add_output_arc(tosfd, s.os_failed);
    net.set_guard(tosfd, [ids](const petri::Marking& m) {
      // Pre-tested patches: the OS does not fail inside the patch window; it
      // also cannot fail while the hardware is down (it is not running).
      return m[ids.hw_up] == 1 && !ids.in_patch_window(m);
    });

    const auto tosfup = net.add_timed_transition("Tosfup", rate_from_mean_hours(p.os_mttr, "os mttr"));
    net.add_input_arc(tosfup, s.os_failed);
    net.add_output_arc(tosfup, s.os_up);
    net.set_guard(tosfup, hw_is_up);  // gosfup

    const auto tosptrig = net.add_immediate_transition("Tosptrig");  // gosptrig: svc patched
    net.add_input_arc(tosptrig, s.os_up);
    net.add_output_arc(tosptrig, s.os_ready_to_patch);
    net.set_guard(tosptrig, [ids](const petri::Marking& m) { return m[ids.svc_patched] == 1; });

    const auto tosp = net.add_timed_transition("Tosp", alpha_os);
    net.add_input_arc(tosp, s.os_ready_to_patch);
    net.add_output_arc(tosp, s.os_patched);
    net.set_guard(tosp, hw_is_up);  // gosp

    const auto tosrpd = net.add_immediate_transition("Tosrpd");  // gosrpd: hw down
    net.add_input_arc(tosrpd, s.os_ready_to_patch);
    net.add_output_arc(tosrpd, s.os_down);
    net.set_guard(tosrpd, hw_is_down);

    const auto tospd = net.add_immediate_transition("Tospd");  // gospd: hw down
    net.add_input_arc(tospd, s.os_patched);
    net.add_output_arc(tospd, s.os_down);
    net.set_guard(tospd, hw_is_down);

    // Without a reboot requirement the patched OS returns to service
    // immediately -- but only after the clock reset and the service's
    // ready-to-reboot hand-off observed #Posp == 1 (hence low priority).
    const auto tosprb =
        options.reboot_required
            ? net.add_timed_transition(
                  "Tosprb", rate_from_mean_hours(p.os_reboot_after_patch, "os reboot"))
            : net.add_immediate_transition("Tosprb", 1.0, /*priority=*/1);
    net.add_input_arc(tosprb, s.os_patched);
    net.add_output_arc(tosprb, s.os_up);
    net.set_guard(tosprb, hw_is_up);  // gosprb
  }

  // ---- service (Fig. 5c) -----------------------------------------------------
  {
    const auto tsvcd = net.add_immediate_transition("Tsvcd");  // gsvcd
    net.add_input_arc(tsvcd, s.svc_up);
    net.add_output_arc(tsvcd, s.svc_down);
    net.set_guard(tsvcd, hw_or_osf_down);

    const auto tsvcdrb = net.add_timed_transition(
        "Tsvcdrb", rate_from_mean_hours(p.svc_reboot_after_failure, "svc reboot"));
    net.add_input_arc(tsvcdrb, s.svc_down);
    net.add_output_arc(tsvcdrb, s.svc_up);
    net.set_guard(tsvcdrb, hw_os_up);  // gsvcdrb

    const auto tsvcfd = net.add_timed_transition("Tsvcfd",
                                                 rate_from_mean_hours(p.svc_mtbf, "svc mtbf"));
    net.add_input_arc(tsvcfd, s.svc_up);
    net.add_output_arc(tsvcfd, s.svc_failed);
    net.set_guard(tsvcfd, [ids](const petri::Marking& m) {
      // Software failures only in production with healthy HW/OS and not
      // inside the patch window.
      return m[ids.hw_up] == 1 && m[ids.os_up] == 1 && !ids.in_patch_window(m);
    });

    const auto tsvcfup = net.add_timed_transition("Tsvcfup",
                                                  rate_from_mean_hours(p.svc_mttr, "svc mttr"));
    net.add_input_arc(tsvcfup, s.svc_failed);
    net.add_output_arc(tsvcfup, s.svc_up);
    net.set_guard(tsvcfup, hw_os_up);  // gsvcfup

    const auto tsvcptrig = net.add_immediate_transition("Tsvcptrig");  // gsvcptrig
    net.add_input_arc(tsvcptrig, s.svc_up);
    net.add_output_arc(tsvcptrig, s.svc_ready_to_patch);
    net.set_guard(tsvcptrig, [ids](const petri::Marking& m) { return m[ids.clock_triggered] == 1; });

    const auto tsvcp = net.add_timed_transition("Tsvcp", alpha_svc);
    net.add_input_arc(tsvcp, s.svc_ready_to_patch);
    net.add_output_arc(tsvcp, s.svc_patched);
    net.set_guard(tsvcp, hw_os_up);  // gsvcp

    const auto tsvcrpd = net.add_immediate_transition("Tsvcrpd");  // gsvcrpd
    net.add_input_arc(tsvcrpd, s.svc_ready_to_patch);
    net.add_output_arc(tsvcrpd, s.svc_down);
    net.set_guard(tsvcrpd, hw_or_osf_down);

    const auto tsvcrrb = net.add_immediate_transition("Tsvcrrb", 1.0, /*priority=*/5);  // gsvcrrb
    net.add_input_arc(tsvcrrb, s.svc_patched);
    net.add_output_arc(tsvcrrb, s.svc_ready_to_reboot);
    net.set_guard(tsvcrrb, [ids](const petri::Marking& m) { return m[ids.os_patched] == 1; });

    const auto tsvcrrbd = net.add_immediate_transition("Tsvcrrbd");  // gsvcrrbd
    net.add_input_arc(tsvcrrbd, s.svc_ready_to_reboot);
    net.add_output_arc(tsvcrrbd, s.svc_down);
    net.set_guard(tsvcrrbd, hw_or_osf_down);

    const auto tsvcprb =
        options.reboot_required
            ? net.add_timed_transition(
                  "Tsvcprb", rate_from_mean_hours(p.svc_reboot_after_patch, "svc reboot"))
            : net.add_immediate_transition("Tsvcprb", 1.0, /*priority=*/1);
    net.add_input_arc(tsvcprb, s.svc_ready_to_reboot);
    net.add_output_arc(tsvcprb, s.svc_up);
    net.set_guard(tsvcprb, hw_os_up);  // gsvcprb: service reboots only after the OS is back
  }

  // ---- patch clock (Fig. 5d) -------------------------------------------------
  {
    s.patch_clock = net.add_timed_transition(
        "Tinterval", rate_from_mean_hours(p.patch_interval, "patch interval"));
    net.add_input_arc(s.patch_clock, s.clock_idle);
    net.add_output_arc(s.patch_clock, s.clock_armed);
    net.set_guard(s.patch_clock, [ids](const petri::Marking& m) {  // ginterval
      return m[ids.svc_up] == 1 || m[ids.svc_down] == 1 || m[ids.svc_failed] == 1;
    });

    const auto tpolicy = net.add_immediate_transition("Tpolicy");  // gpolicy: service up
    net.add_input_arc(tpolicy, s.clock_armed);
    net.add_output_arc(tpolicy, s.clock_triggered);
    net.set_guard(tpolicy, [ids](const petri::Marking& m) { return m[ids.svc_up] == 1; });

    const auto treset = net.add_immediate_transition("Treset", 1.0, /*priority=*/5);  // greset
    net.add_input_arc(treset, s.clock_triggered);
    net.add_output_arc(treset, s.clock_idle);
    net.set_guard(treset, [ids](const petri::Marking& m) { return m[ids.os_patched] == 1; });
  }

  return s;
}

}  // namespace patchsec::avail
