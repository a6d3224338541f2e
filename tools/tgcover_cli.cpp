// The `tgcover` command-line tool: generate / schedule / verify / quality /
// render / trace / distributed / repair / fleet / report / scale / compare /
// version. Runs write observability bundles with --obs-out DIR; `report` is
// the one renderer.
// All logic lives in tgc_app (src/app/cli.cpp) so it is unit-tested; this
// translation unit is just the process entry point.
#include <iostream>

#include "tgcover/app/cli.hpp"
#include "tgcover/obs/flight.hpp"
#include "tgcover/util/check.hpp"

int main(int argc, char** argv) {
  // Only the binary installs signal handlers (SEGV/ABRT/...): the library
  // and its tests keep default signal disposition. The handlers dump the
  // flight-recorder ring to stderr before re-raising, so a crash still
  // yields the rounds leading up to it when --flight is on.
  tgc::obs::install_crash_handlers();
  try {
    return tgc::app::run_cli(argc, argv, std::cout);
  } catch (const tgc::CheckError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
