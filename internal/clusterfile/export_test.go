package clusterfile

// DirtyMsgBufPool seeds the message-buffer pool with n buffers of the
// given capacity whose every byte is 0xFF, so a test can tell whether a
// path that needs zeroes relies on what pooled capacity happens to hold.
func DirtyMsgBufPool(n int, size int64) {
	for i := 0; i < n; i++ {
		b := make([]byte, size)
		for j := range b {
			b[j] = 0xFF
		}
		b = b[:0]
		msgBufPool.Put(&b)
	}
}
