#include "testbed/sniffer.h"

#include <cstdio>

namespace lm::testbed {

Sniffer::Sniffer(sim::Simulator& sim, radio::Channel& channel, radio::RadioId id,
                 phy::Position position, radio::RadioConfig config)
    : sim_(sim), radio_(sim, channel, id, position, config) {
  radio_.set_listener(this);
  radio_.start_receive();
}

Sniffer::~Sniffer() { radio_.set_listener(nullptr); }

void Sniffer::on_frame_received(std::span<const std::uint8_t> frame,
                                const radio::FrameMeta& meta) {
  CapturedFrame capture;
  capture.at = sim_.now();
  capture.meta = meta;
  capture.raw.assign(frame.begin(), frame.end());
  capture.packet = net::decode(frame);
  if (callback_) callback_(capture);
  captures_.push_back(std::move(capture));
}

std::size_t Sniffer::count_of(net::PacketType type) const {
  std::size_t n = 0;
  for (const CapturedFrame& c : captures_) {
    if (c.packet && net::type_of(*c.packet) == type) ++n;
  }
  return n;
}

std::size_t Sniffer::undecodable() const {
  std::size_t n = 0;
  for (const CapturedFrame& c : captures_) {
    if (!c.packet) ++n;
  }
  return n;
}

std::string Sniffer::dump() const {
  std::string out;
  char line[256];
  for (const CapturedFrame& c : captures_) {
    std::snprintf(line, sizeof line, "%-14s %6.1f dBm  %s\n",
                  c.at.to_string().c_str(), c.meta.rssi_dbm,
                  c.packet ? net::describe(*c.packet).c_str()
                           : "(not a LoRaMesher frame)");
    out += line;
  }
  return out;
}

}  // namespace lm::testbed
