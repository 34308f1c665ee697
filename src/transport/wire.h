#ifndef LHRS_TRANSPORT_WIRE_H_
#define LHRS_TRANSPORT_WIRE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "net/message.h"

namespace lhrs::transport {

/// Serializer for one message body: a gather list of byte runs.
///
/// Primitive appends (little-endian fixed width) accumulate into owned
/// byte runs; `View` splices a `BufferView` in by reference, so a record
/// payload travels from the bucket store to `sendmsg` without ever being
/// copied (the view keeps its buffer alive while the writer exists). The
/// flattened form is only materialized for TCP framing and retransmit
/// buffers.
///
/// Invariant enforced by the wire tests: for every registered message
/// kind, `size()` after serialization equals the body's declared
/// `ByteSize()` — the simulator's latency model and `MessageStats` count
/// exactly the bytes a real socket would carry.
class WireWriter {
 public:
  void U8(uint8_t v) { Raw(&v, 1); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// Explicit layout padding (zeros), so fixed-size messages serialize to
  /// exactly their declared ByteSize.
  void Pad(size_t n);
  /// u32 length prefix + bytes.
  void Str(const std::string& s);
  /// u32 length prefix + bytes.
  void BytesField(const Bytes& b);
  /// u32 length prefix + spliced payload bytes (zero-copy).
  void View(const BufferView& v);

  size_t size() const { return size_; }

  /// One gather-list entry; pointers are valid while the writer (and the
  /// views it references) are alive.
  struct Chunk {
    const uint8_t* data;
    size_t size;
  };
  std::vector<Chunk> Chunks() const;

  /// Materializes the full serialization (one copy).
  Bytes Flatten() const;

 private:
  void Raw(const void* data, size_t n);

  struct Piece {
    Bytes owned;      ///< Used when `view` is empty.
    BufferView view;  ///< Spliced payload (owned stays empty).
    bool is_view = false;
  };
  std::vector<Piece> pieces_;
  size_t size_ = 0;
};

/// Bounds-checked cursor over a received frame. Every accessor returns
/// false (and poisons the reader) instead of reading out of bounds, so a
/// decoder walks truncated or corrupted input safely — the fuzz loop in
/// wire_test.cc feeds it garbage under ASan/UBSan. `View` returns
/// zero-copy sub-views of the receive buffer.
class WireReader {
 public:
  explicit WireReader(BufferView data) : data_(std::move(data)) {}

  bool U8(uint8_t* v);
  bool U16(uint16_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool I32(int32_t* v);
  bool Bool(bool* v);
  bool Skip(size_t n);
  bool Str(std::string* s);
  bool BytesField(Bytes* b);
  bool View(BufferView* v);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  bool ok() const { return ok_; }

 private:
  bool Take(size_t n, const uint8_t** out);

  BufferView data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Codec of one message kind. `serialize` returns false when the concrete
/// body cannot travel (a scan predicate carrying a native `custom`
/// function); `deserialize` returns null on malformed input — it must
/// never crash or over-read.
struct WireCodec {
  const char* name = "";
  bool (*serialize)(const MessageBody& body, WireWriter& w) = nullptr;
  std::unique_ptr<MessageBody> (*deserialize)(WireReader& r) = nullptr;
};

/// Registers the codec for `kind`; CHECK-fails on duplicates.
void RegisterWireCodec(int kind, WireCodec codec);

/// The codec for `kind`, or nullptr when none is registered.
const WireCodec* FindWireCodec(int kind);

/// All registered kinds, ascending (the round-trip tests iterate this).
std::vector<int> RegisteredWireKinds();

/// Per-layer registration hooks (each idempotent).
void RegisterLhStarWire();
void RegisterLhrsWire();

/// Registers every layer's codecs (idempotent); call once at startup.
void RegisterAllWireCodecs();

/// Serializes `body` into `w`; false when the kind is unregistered or the
/// body is unserializable.
bool SerializeBody(const MessageBody& body, WireWriter& w);

/// Decodes one body of `kind` from `payload`. Null on unknown kind,
/// malformed input, or trailing bytes (every frame must parse exactly).
std::unique_ptr<MessageBody> DeserializeBody(int kind, BufferView payload);

}  // namespace lhrs::transport

#endif  // LHRS_TRANSPORT_WIRE_H_
