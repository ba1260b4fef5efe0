#pragma once
// Lower-layer SRN sub-models for one server (paper Fig. 5 + Table III):
// hardware, OS, service and patch-clock nets coupled through guard
// functions.  The patch sequence implemented (Sec. III-D assumptions):
//
//   clock fires (rate tau_p, monthly)            Pclock  -> Parm
//   patch starts when the service is up          Parm    -> Ptrigger
//   service leaves production                    Psvcup  -> Psvcrtp
//   application patch (rate alpha_svc)           Psvcrtp -> Psvcp
//   OS patch triggered by finished app patch     Posup   -> Posrtp
//   OS patch (rate alpha_os)                     Posrtp  -> Posp
//   clock reset + service ready to reboot        (immediates on #Posp == 1)
//   OS reboot (rate beta_os)                     Posp    -> Posup
//   service reboot (rate beta_svc, needs OS up)  Psvcprrb-> Psvcup
//
// Failures: hardware fails any time except during the patch window; OS and
// service software fail only in production (patches are pre-tested).

#include <string>

#include "patchsec/enterprise/server.hpp"
#include "patchsec/petri/srn_model.hpp"

namespace patchsec::avail {

/// Names of every place/transition plus resolved ids, so callers (tests,
/// benches, the aggregator) can reference the net without string lookups.
struct ServerSrn {
  petri::SrnModel model;

  // hardware
  petri::PlaceId hw_up, hw_down;
  // OS
  petri::PlaceId os_up, os_down, os_failed, os_ready_to_patch, os_patched;
  // service
  petri::PlaceId svc_up, svc_down, svc_failed, svc_ready_to_patch, svc_patched,
      svc_ready_to_reboot;
  // patch clock
  petri::PlaceId clock_idle, clock_armed, clock_triggered;
  /// Tinterval, rate 1 / patch_interval_hours: the only rate a cadence
  /// changes, so set_rate on it gives another cadence's net.
  petri::TransitionId patch_clock;

  /// True when the marking is inside the patch window (any patch-phase place
  /// occupied); hardware and software failures are suppressed here.
  [[nodiscard]] bool in_patch_window(const petri::Marking& m) const;

  /// Service is down *due to patch* (the p_pd states of Eq. 2).
  [[nodiscard]] bool service_patch_down(const petri::Marking& m) const;

  /// The service-reboot transition is enabled: service ready to reboot with
  /// hardware and OS up (the p_prrb state of Eq. 2).
  [[nodiscard]] bool service_reboot_enabled(const petri::Marking& m) const;

  /// Service in production.
  [[nodiscard]] bool service_up(const petri::Marking& m) const;
};

/// The rates of the server sub-models in the form of Table IV (mean times in
/// hours, derived from the spec's failure behaviour and critical-vulnerability
/// counts).
struct ServerSrnParameters {
  double hw_mtbf, hw_mttr;
  double os_mtbf, os_mttr, os_patch, os_reboot_after_patch, os_reboot_after_failure;
  double svc_mtbf, svc_mttr, svc_patch, svc_reboot_after_patch, svc_reboot_after_failure;
  double patch_interval;
};

[[nodiscard]] ServerSrnParameters server_srn_parameters(const enterprise::ServerSpec& spec,
                                                        double patch_interval_hours = 720.0);

/// Patch-policy variants (paper Sec. V: "Some patches might not need to
/// reboot the application or the OS").
struct ServerSrnOptions {
  double patch_interval_hours = 720.0;
  /// When false, patches take effect without any reboot: the OS- and
  /// service-reboot phases collapse to immediate transitions and the patch
  /// downtime is just the patch durations.
  bool reboot_required = true;
  /// Override the patch-work durations derived from the spec's critical
  /// vulnerability counts (used by multi-stage campaigns where each month
  /// patches a different vulnerability subset).  Negative = use the spec.
  double app_patch_hours_override = -1.0;
  double os_patch_hours_override = -1.0;
};

/// Build the Fig. 5 SRN for one server under the given policy options
/// (`options.patch_interval_hours` is 1/tau_p; 720 h = monthly).  Throws
/// std::invalid_argument when the spec has no critical vulnerability at all
/// (nothing to patch: the model degenerates).
[[nodiscard]] ServerSrn build_server_srn(const enterprise::ServerSpec& spec,
                                         const ServerSrnOptions& options = {});

}  // namespace patchsec::avail
