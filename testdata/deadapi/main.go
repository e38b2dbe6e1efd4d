package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	fmt.Println(lib.OnlyMain(), lib.Box[int]{}.Get())
}
