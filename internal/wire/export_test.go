package wire

// DecodeSigned exposes Open without the signature to the tests, which
// check the signed bytes a decode keeps: the decoded message and the
// bytes it kept from data.
func DecodeSigned(data []byte) (Message, []byte, error) {
	m, signed, _, err := Open(data)
	return m, signed, err
}

// decoder returns a codec decoding data as a network frame.
func decoder(data []byte) *Codec { return &Codec{dec: true, r: reader{buf: data}} }
