package fleet

import (
	"encoding/json"
	"os"
)

// Save writes the spec as indented JSON.
func (s *Spec) Save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
