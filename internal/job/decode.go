package job

import "strconv"

// Wire-key bits for decodeCanonical's duplicate check.
const (
	keyID = 1 << iota
	keyQubits
	keyDepth
	keyShots
	keyArrival
	keyT2
	keyTenant
)

// decodeCanonical is DecodeLine's fast path. It decodes one JSON object
// whose keys are exactly the lowercase wire names of jobJSON, each at
// most once, with string values of printable ASCII and no escapes,
// JSON-grammar numbers, and int fields written without fraction or
// exponent. JSON whitespace may surround any token. It reports false
// for anything else (case-folded or duplicate keys, null, escapes,
// non-ASCII, 5.0 or an overflowing int, a float outside float64's
// range, unknown keys, trailing bytes) and for a job that fails
// Validate. On those inputs decodeReflective runs instead, so every
// accepted job and every error is the reflective decoder's.
//
// Strings kept in the job are copies: line may alias a reader's buffer.
func decodeCanonical(line []byte) (*QJob, bool) {
	var (
		j    QJob
		seen int
	)
	i := skipSpace(line, 0)
	if i >= len(line) || line[i] != '{' {
		return nil, false
	}
	for {
		i = skipSpace(line, i+1)
		key, k, ok := scanString(line, i)
		if !ok {
			return nil, false
		}
		var bit int
		switch string(key) {
		case "job_id":
			bit = keyID
		case "num_qubits":
			bit = keyQubits
		case "depth":
			bit = keyDepth
		case "num_shots":
			bit = keyShots
		case "arrival_time":
			bit = keyArrival
		case "two_qubit_gates":
			bit = keyT2
		case "tenant":
			bit = keyTenant
		default:
			return nil, false
		}
		if seen&bit != 0 {
			return nil, false
		}
		seen |= bit
		i = skipSpace(line, k)
		if i >= len(line) || line[i] != ':' {
			return nil, false
		}
		i = skipSpace(line, i+1)
		switch bit {
		case keyID, keyTenant:
			s, end, ok := scanString(line, i)
			if !ok {
				return nil, false
			}
			if bit == keyID {
				j.ID = string(s)
			} else {
				j.Tenant = string(s)
			}
			i = end
		case keyArrival:
			end, ok := scanNumber(line, i, true)
			if !ok {
				return nil, false
			}
			f, err := strconv.ParseFloat(string(line[i:end]), 64)
			if err != nil {
				return nil, false
			}
			j.ArrivalTime = f
			i = end
		default:
			end, ok := scanNumber(line, i, false)
			if !ok {
				return nil, false
			}
			v, ok := parseInt(line[i:end])
			if !ok {
				return nil, false
			}
			switch bit {
			case keyQubits:
				j.NumQubits = v
			case keyDepth:
				j.Depth = v
			case keyShots:
				j.Shots = v
			case keyT2:
				j.TwoQubitGates = v
			}
			i = end
		}
		i = skipSpace(line, i)
		if i >= len(line) {
			return nil, false
		}
		if line[i] == '}' {
			break
		}
		if line[i] != ',' {
			return nil, false
		}
	}
	if skipSpace(line, i+1) != len(line) {
		return nil, false
	}
	if seen&keyT2 == 0 {
		j.TwoQubitGates = defaultTwoQubitGates(j.NumQubits, j.Depth)
	}
	if j.Validate() != nil {
		return nil, false
	}
	return &j, true
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString scans a JSON string starting at b[i] == '"' whose contents
// are printable ASCII other than the backslash. It returns the contents
// and the index just past the closing quote.
func scanString(b []byte, i int) (s []byte, end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for k := i + 1; k < len(b); k++ {
		switch c := b[k]; {
		case c == '"':
			return b[i+1 : k], k + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// scanNumber checks the JSON number grammar from b[i] and returns the
// index just past the number. Without frac, the number must be an
// integer: no fraction and no exponent.
func scanNumber(b []byte, i int, frac bool) (end int, ok bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return 0, false
	}
	if !frac {
		return i, i >= len(b) || (b[i] != '.' && b[i] != 'e' && b[i] != 'E')
	}
	if i < len(b) && b[i] == '.' {
		k := skipDigits(b, i+1)
		if k == i+1 {
			return 0, false
		}
		i = k
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		k := skipDigits(b, i)
		if k == i {
			return 0, false
		}
		i = k
	}
	return i, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// parseInt converts a grammar-checked JSON integer of at most 18
// digits, which cannot overflow int64, and reports false when the value
// does not fit an int. Longer numbers are left to the reflective path.
func parseInt(b []byte) (int, bool) {
	neg := b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	if int64(int(n)) != n {
		return 0, false
	}
	return int(n), true
}
