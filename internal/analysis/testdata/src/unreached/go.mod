module unreached

go 1.21
