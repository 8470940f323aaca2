// Firmware update: push a multi-kilobyte binary to a node three radio hops
// away, over lossy links, using the library's reliable large-payload
// transfer (the paper's "XL packets": SYNC / FRAGMENT / LOST / DONE).
//
//   ./build/examples/firmware_update [payload_bytes] [loss_percent]
#include <cstdio>
#include <cstdlib>

#include "phy/path_loss.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"

using namespace lm;

int main(int argc, char** argv) {
  const std::size_t payload_bytes =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 8192;
  const double loss = argc > 2 ? std::strtod(argv[2], nullptr) / 100.0 : 0.10;

  testbed::ScenarioConfig config;
  config.seed = 5;
  config.propagation.path_loss = phy::make_log_distance(3.5, 40.0);
  // No shadowing or fading: the loss on each hop is loss_percent alone.
  config.propagation.shadowing_sigma_db = 0.0;
  config.propagation.fading_sigma_db = 0.0;
  config.mesh.hello_interval = Duration::seconds(120);
  config.mesh.duty_cycle_limit = 1.0;  // lab setting; see bench_large_payload
  config.mesh.sync_max_retries = 10;
  // Repairing an image over lossy hops takes minutes; the receiver must
  // keep its session (armed once, at the first SYNC) until the last repair.
  config.mesh.receiver_session_timeout = Duration::minutes(30);

  testbed::MeshScenario mesh(config);
  mesh.add_nodes(testbed::chain(4, 400.0));
  mesh.start_all();
  std::printf("waiting for routes to the target (3 hops away)...\n");
  if (!mesh.run_until_converged(Duration::minutes(20))) {
    std::printf("mesh failed to converge\n");
    return 1;
  }
  for (radio::RadioId id = 1; id <= 3; ++id) {
    mesh.channel().set_link_extra_loss(id, id + 1, loss);
  }

  // A fake firmware image with a checksum-able pattern.
  std::vector<std::uint8_t> image(payload_bytes);
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 8));
  }

  bool verified = false;
  mesh.node(3).set_reliable_handler(
      [&](net::Address origin, std::vector<std::uint8_t> data) {
        verified = data == image;
        std::printf("target received %zu bytes from %s — image %s\n",
                    data.size(), net::to_string(origin).c_str(),
                    verified ? "verified" : "CORRUPT");
      });

  std::printf("pushing %zu bytes over 3 hops with %.0f %% per-link loss...\n",
              image.size(), 100 * loss);
  const TimePoint start = mesh.simulator().now();
  int outcome = -1;
  if (!mesh.node(0).send_reliable(mesh.address_of(3), image,
                                  [&](bool ok) { outcome = ok ? 1 : 0; })) {
    std::printf("transfer refused (no route)\n");
    return 1;
  }
  while (outcome == -1 &&
         mesh.simulator().now() - start < Duration::hours(2)) {
    mesh.run_for(Duration::seconds(30));
    std::printf("  t+%4.0f s: %llu fragments on the air\n",
                (mesh.simulator().now() - start).seconds_d(),
                static_cast<unsigned long long>(mesh.node(0).stats().fragments_sent));
  }

  const double secs = (mesh.simulator().now() - start).seconds_d();
  if (outcome == 1 && verified) {
    // Retransmissions are tallied when the finished session is reaped.
    std::printf("\nupdate complete in %.0f s (%.0f bit/s goodput, %llu fragments "
                "retransmitted)\n",
                secs, 8.0 * static_cast<double>(payload_bytes) / secs,
                static_cast<unsigned long long>(
                    mesh.node(0).stats().fragments_retransmitted));
    return 0;
  }
  std::printf("\nupdate FAILED after %.0f s\n", secs);
  return 1;
}
