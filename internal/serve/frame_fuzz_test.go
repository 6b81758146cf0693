package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"hsqp/internal/storage"
)

// FuzzReadFrame feeds arbitrary bytes to readFrame and every accepted
// payload to the payload decoders. Nothing may panic, and an accepted frame
// must re-encode to exactly the bytes it was read from.
func FuzzReadFrame(f *testing.F) {
	frame := func(tb testing.TB, typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeFrame(w, typ, payload); err != nil || w.Flush() != nil {
			tb.Fatalf("frame type %#x with a %d-byte payload does not encode", typ, len(payload))
		}
		return buf.Bytes()
	}
	schema := storage.NewSchema(storage.Field{Name: "l_orderkey", Type: storage.TInt64},
		storage.Field{Name: "l_shipmode", Type: storage.TString, Nullable: true})
	f.Add(frame(f, frameSchema, putSchema(nil, schema)))
	f.Add(append(frame(f, framePrepare, putString(nil, "select 1")), frame(f, frameOK, nil)...))
	f.Add(frame(f, frameHelloOK, putU32(putU64(putF64(nil, 0.05), 42), 3)))
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrame)) // claims maxFrame, then EOF
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for rest := data; ; {
			typ, payload, err := readFrame(r)
			if err != nil {
				return
			}
			want := frame(t, typ, payload)
			if !bytes.HasPrefix(rest, want) {
				t.Fatal("accepted frame does not re-encode to its input")
			}
			rest = rest[len(want):]
			getString(payload)
			getU32(payload)
			getU64(payload)
			getF64(payload)
			getSchema(payload)
		}
	})
}
