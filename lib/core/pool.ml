let env_domains () = 1
