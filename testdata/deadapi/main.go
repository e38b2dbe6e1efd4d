package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	fmt.Println(lib.OnlyMain(), lib.Box[int]{1}.Get(), lib.Tune(&lib.Knobs{Keyed: 1}))
}
