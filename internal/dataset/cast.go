package dataset

import (
	"encoding/binary"
	"unsafe"
)

// Zero-copy reinterpretation of snapshot segments. The on-disk format is
// little-endian; on little-endian hosts (every supported Go server platform
// in practice) the typed views below alias the mapped bytes directly, so a
// loaded column costs a slice header instead of a decoded copy. Big-endian
// hosts fall back to an explicit decode so the format stays portable.

// hostLittleEndian reports the byte order of this machine, computed once.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// u32View reinterprets b as a []uint32 of little-endian values. b must be
// 4-byte aligned and len(b) a multiple of 4 (the snapshot layout guarantees
// 8-byte alignment for every fixed-width section).
func u32View(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

// viewString returns a string aliasing b without copying. The string is valid
// only while the backing mapping stays mapped; see MappedTable.Close.
func viewString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// u32Bytes returns the little-endian byte serialization of s, aliasing s on
// little-endian hosts.
func u32Bytes(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
	}
	out := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// stringBytes returns the bytes of v without copying. The caller must not
// modify them.
func stringBytes(v string) []byte {
	return unsafe.Slice(unsafe.StringData(v), len(v))
}
